"""Error measurement, interpolation and eigenvalue convergence studies,
and log-log rate fitting.

Errors against a reference are reported in percent.  Max-norm errors are
relative to the sup of the reference over the sample set; the energy error
uses the norm induced by the bilinear form,

    |||v|||^2 = eps^2 ||v''||^2 + ||v'||^2 + ||v||^2,

integrated exactly on the union of the two meshes involved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .assembly import CoefficientSet, FEFunction, assemble
from .eigensolver import SolverConfig, Spectrum, solve_smallest
from .element import (HermiteData, eval_layer_function, gauss_rule,
                      hermite_interpolant, shape_table)
from .errors import (AmbiguousSign, AssumptionViolated, DimensionMismatch,
                     InvalidLayerWidth, InvalidSpec, NonpositiveError,
                     TooFewPoints, ZeroVector)
from .mesh import Mesh, MeshKind, MeshSpec, build_mesh

SIGN_RTOL = 1e-8


def align_sign(u_samples: np.ndarray, ref_samples: np.ndarray) -> float:
    """Return +1.0 or -1.0 so that sign * u matches the reference.

    Eigenvectors come out of the solver with arbitrary sign; comparisons
    need the two orientations reconciled first.  Raises AmbiguousSign when
    the sampled inner product is too close to zero to decide, which happens
    when the samples miss the support or the modes do not match.
    """
    u = np.asarray(u_samples, dtype=float)
    r = np.asarray(ref_samples, dtype=float)
    nu = np.linalg.norm(u)
    nr = np.linalg.norm(r)
    if nu == 0.0 or nr == 0.0:
        raise ZeroVector("cannot align the sign of a zero sample vector")
    ip = float(u @ r)
    if abs(ip) < SIGN_RTOL * nu * nr:
        raise AmbiguousSign(
            f"inner product {ip} is below {SIGN_RTOL} relative; "
            "the two functions do not share a dominant component"
        )
    return 1.0 if ip > 0.0 else -1.0


def energy_norm_error(u_h: FEFunction, u_ref: FEFunction,
                      epsilon: float, n_gauss: int = None) -> float:
    """Percent error |||u_h - u_ref||| / |||u_ref||| * 100, integrated with
    Gauss quadrature on the union of the two meshes."""
    breaks = np.union1d(u_h.mesh.nodes, u_ref.mesh.nodes)
    rule = gauss_rule(n_gauss or 2 * max(u_h.p, u_ref.p))
    widths = np.diff(breaks)
    x = (breaks[:-1, None] + widths[:, None] * rule.points[None, :]).ravel()
    w = (widths[:, None] * rule.weights[None, :]).ravel()

    dh = u_h(x, (0, 1, 2))
    dr = u_ref(x, (0, 1, 2))
    err_sq = 0.0
    ref_sq = 0.0
    for j, factor in enumerate((1.0, 1.0, epsilon**2)):
        err_sq += factor * float(w @ (dh[:, j] - dr[:, j]) ** 2)
        ref_sq += factor * float(w @ dr[:, j]**2)
    if ref_sq <= 0.0:
        raise NonpositiveError("reference function has zero energy norm")
    return 100.0 * np.sqrt(err_sq / ref_sq)


def sample_points(mesh: Mesh, per_region: int = 1000) -> np.ndarray:
    """Evaluation points covering the mesh, region-aware.

    Layer-adapted meshes get per_region points in each of the two layer
    strips and the interior, so the layers are not starved of samples;
    uniform meshes get one dense sweep.  Mesh nodes are always included.
    """
    if per_region < 2:
        raise TooFewPoints(f"per_region must be >= 2, got {per_region}")
    if mesh.spec.kind is MeshKind.UNIFORM:
        pts = np.linspace(0.0, 1.0, 3 * per_region)
    else:
        t = mesh.transition_left()
        if not 0.0 < t < 0.5:
            raise InvalidLayerWidth(f"transition abscissa {t} not in (0, 1/2)")
        pts = np.concatenate([
            np.linspace(0.0, t, per_region),
            np.linspace(t, 1.0 - t, per_region),
            np.linspace(1.0 - t, 1.0, per_region),
        ])
    return np.unique(np.concatenate([pts, mesh.nodes]))


def discrete_max_error(u_h_samples: np.ndarray,
                       ref_samples: np.ndarray) -> float:
    """Percent sup-norm error of samples of u_h against samples of the
    reference at the same points, relative to the sup of the reference
    there."""
    dh = np.asarray(u_h_samples, dtype=float)
    dr = np.asarray(ref_samples, dtype=float)
    if dh.shape != dr.shape:
        raise DimensionMismatch(f"sample shapes {dh.shape} and {dr.shape} "
                                "differ")
    if dr.size < 2:
        raise TooFewPoints(f"got {dr.size} evaluation points")
    denom = float(np.abs(dr).max())
    if denom <= 0.0:
        raise NonpositiveError("reference is identically zero on the samples")
    return 100.0 * float(np.abs(dh - dr).max()) / denom


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log(error) against log(n).

    slope is reported positive for decaying errors (order of convergence);
    max_log_residual is the worst deviation of the data from the fitted
    line in log space, a quick check that the fit is trustworthy.
    """

    slope: float
    intercept: float
    max_log_residual: float
    ns: tuple
    errors: tuple


def fit_slope(ns: Sequence[float], errors: Sequence[float]) -> SlopeFit:
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(ns) != len(errors):
        raise TooFewPoints(
            f"mismatched lengths: {len(ns)} sizes vs {len(errors)} errors"
        )
    if len(ns) < 2:
        raise TooFewPoints(f"need at least two points, got {len(ns)}")
    if np.any(errors <= 0.0):
        raise NonpositiveError(
            "errors must be positive to fit a rate; "
            f"got min {float(errors.min())}"
        )
    if np.any(ns <= 0.0):
        raise NonpositiveError("sizes must be positive")
    logn = np.log(ns)
    loge = np.log(errors)
    coef = np.polyfit(logn, loge, 1)
    resid = float(np.abs(loge - np.polyval(coef, logn)).max())
    return SlopeFit(slope=-float(coef[0]), intercept=float(coef[1]),
                    max_log_residual=resid, ns=tuple(ns), errors=tuple(errors))


def fit_slope_tail(ns: Sequence[float], errors: Sequence[float],
                   max_residual: float = 0.25,
                   min_points: int = 3) -> SlopeFit:
    """fit_slope, dropping the coarsest points while the fit is poor.

    Pre-asymptotic coarse levels can drag the fitted slope around; this
    keeps removing them while the log residual exceeds max_residual and at
    least min_points remain.
    """
    ns = list(ns)
    errors = list(errors)
    fit = fit_slope(ns, errors)
    while fit.max_log_residual > max_residual and len(ns) > min_points:
        ns = ns[1:]
        errors = errors[1:]
        fit = fit_slope(ns, errors)
    return fit


@dataclass(frozen=True)
class InterpRecord:
    n_elements: int
    max_err: float          # sup |f - I f|
    max_err_d1: float       # sup |(f - I f)'|
    scaled_h2_err: float    # sqrt(eps) * |f - I f|_{H^2}


@dataclass(frozen=True)
class InterpReport:
    mesh_kind: MeshKind
    epsilon: float
    beta: float
    p: int
    records: tuple

    def series(self, metric: str):
        ns = [r.n_elements for r in self.records]
        vals = [getattr(r, metric) for r in self.records]
        return ns, vals

    def order(self, metric: str) -> SlopeFit:
        return fit_slope(*self.series(metric))


def interp_rate_study(mesh_kind, epsilon: float, beta: float, p: int,
                      n_values: Sequence[int], per_element: int = 200,
                      n_gauss: int = 12) -> InterpReport:
    """Interpolate the left layer function exp(-beta x / epsilon) with the
    C1 space on each mesh in the ladder and record the three error metrics.

    The study targets the layer regime; it refuses to run when epsilon is
    so large relative to a mesh that the layer is resolved trivially.
    """
    kind = MeshKind(mesh_kind)
    for n in n_values:
        if epsilon * n >= 1.0:
            raise AssumptionViolated(
                f"epsilon={epsilon} with N={n} is outside the layer regime "
                "(need epsilon < 1/N)"
            )
    group = (p - 1) // 2
    grule = gauss_rule(n_gauss)
    xi = np.linspace(0.0, 1.0, per_element)

    records = []
    for n in n_values:
        mesh = build_mesh(MeshSpec(epsilon=epsilon, beta=beta, p=p,
                                   n_elements=n, kind=kind))
        nodes = mesh.nodes
        data = HermiteData(
            nodes=nodes,
            values=eval_layer_function(nodes, epsilon, beta),
            slopes=eval_layer_function(nodes, epsilon, beta, deriv=1),
        )
        interp = hermite_interpolant(data, group)

        x0 = (nodes[:-1, None] + mesh.widths[:, None] * xi[None, :]).ravel()
        e0 = np.abs(eval_layer_function(x0, epsilon, beta) - interp(x0))
        e1 = np.abs(eval_layer_function(x0, epsilon, beta, deriv=1)
                    - interp(x0, deriv=1))

        xg = (nodes[:-1, None]
              + mesh.widths[:, None] * grule.points[None, :]).ravel()
        wg = (mesh.widths[:, None] * grule.weights[None, :]).ravel()
        d2 = eval_layer_function(xg, epsilon, beta, deriv=2) - interp(xg, deriv=2)
        h2 = np.sqrt(epsilon) * np.sqrt(float(wg @ d2**2))

        records.append(InterpRecord(
            n_elements=n,
            max_err=float(e0.max()),
            max_err_d1=float(e1.max()),
            scaled_h2_err=h2,
        ))
    return InterpReport(mesh_kind=kind, epsilon=epsilon, beta=beta, p=p,
                        records=tuple(records))


@dataclass(frozen=True)
class ReferenceSolution:
    """Fine-mesh solve used as ground truth for a convergence ladder."""

    mesh: Mesh
    spectrum: Spectrum
    functions: tuple        # one FEFunction per mode


def default_reference_n(n_values: Sequence[int]) -> int:
    return max(512, 8 * max(n_values))


def compute_reference(kind, epsilon: float, beta: float, p: int, n_ref: int,
                      coeffs: CoefficientSet, modes: int,
                      tol: float = 1e-11) -> ReferenceSolution:
    spec = MeshSpec(epsilon=epsilon, beta=beta, p=p, n_elements=n_ref,
                    kind=MeshKind(kind))
    mesh = build_mesh(spec)
    K, M, dofmap = assemble(mesh, shape_table(p), coeffs)
    spectrum = solve_smallest(K, M, SolverConfig(k=modes, tol=tol))
    funcs = tuple(FEFunction.from_dof_vector(mesh, dofmap,
                                             spectrum.eigenvectors[:, m])
                  for m in range(modes))
    return ReferenceSolution(mesh=mesh, spectrum=spectrum, functions=funcs)


@dataclass(frozen=True)
class StudyRecord:
    mesh_kind: str
    epsilon: float
    p: int
    N: int
    dof: int
    mode: int
    lambda_h: float
    lambda_err_pct: float
    energy_err_pct: float
    maxnorm_u_pct: float
    maxnorm_du_pct: float


CSV_COLUMNS = ("mesh_kind", "epsilon", "p", "N", "dof", "mode", "lambda_h",
               "lambda_err_pct", "energy_err_pct", "maxnorm_u_pct",
               "maxnorm_du_pct")
CSV_KINDS = (str, float, int, int, int, int, float, float, float, float,
             float)


ERROR_METRICS = ("lambda_err_pct", "energy_err_pct",
                 "maxnorm_u_pct", "maxnorm_du_pct")


@dataclass(frozen=True)
class StudyReport:
    records: tuple
    reference: ReferenceSolution = field(repr=False, default=None)

    def modes(self):
        return sorted({r.mode for r in self.records})

    def series(self, mode: int, metric: str, vs: str = "N"):
        if vs not in ("N", "dof"):
            raise InvalidSpec(f"unknown abscissa {vs!r}")
        ns = [getattr(r, vs) for r in self.records if r.mode == mode]
        vals = [getattr(r, metric) for r in self.records if r.mode == mode]
        return ns, vals

    def order(self, mode: int, metric: str, vs: str = "N") -> SlopeFit:
        return fit_slope(*self.series(mode, metric, vs))

    def slope_blocks(self, vs: str = "dof") -> dict:
        """Fitted orders per metric and mode, skipping series the fit
        rejects (too short, or errors at rounding level)."""
        out = {}
        for metric in ERROR_METRICS:
            per_mode = {}
            for mode in self.modes():
                try:
                    fit = self.order(mode, metric, vs)
                except (TooFewPoints, NonpositiveError):
                    continue
                per_mode[str(mode)] = {
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "max_log_residual": fit.max_log_residual,
                    "vs": vs,
                }
            if per_mode:
                out[metric] = per_mode
        return out

    def to_json(self, path) -> None:
        payload = {
            "records": [{c: getattr(r, c) for c in CSV_COLUMNS}
                        for r in self.records],
            "slopes": self.slope_blocks(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def convergence_study(kind, epsilon: float, beta: float, p: int,
                      n_values: Sequence[int], coeffs: CoefficientSet,
                      modes: int = 1, reference: ReferenceSolution = None,
                      ref_n: int = None, tol: float = 1e-11,
                      per_region: int = 1000,
                      on_record: Callable = None) -> StudyReport:
    """Solve the eigenproblem on a ladder of meshes, compare each mode to a
    fine-mesh reference of the same kind, and tabulate the errors.

    on_record, when given, receives each StudyRecord as soon as it exists,
    so callers can flush partial results even if a later grid point fails.
    """
    kind = MeshKind(kind)
    n_values = sorted(int(n) for n in n_values)
    if reference is None:
        reference = compute_reference(kind, epsilon, beta, p,
                                      ref_n or default_reference_n(n_values),
                                      coeffs, modes, tol=tol)
    lam_ref = reference.spectrum.eigenvalues
    shapes = shape_table(p)

    records = []
    for n in n_values:
        mesh = build_mesh(MeshSpec(epsilon=epsilon, beta=beta, p=p,
                                   n_elements=n, kind=kind))
        K, M, dofmap = assemble(mesh, shapes, coeffs)
        spectrum = solve_smallest(K, M, SolverConfig(k=modes, tol=tol))
        pts = sample_points(mesh, per_region)
        for m in range(modes):
            u_h = FEFunction.from_dof_vector(mesh, dofmap,
                                             spectrum.eigenvectors[:, m])
            u_ref = reference.functions[m]
            # columns u, u' at pts; flipping the samples' sign is exact
            dh = u_h(pts, (0, 1))
            dr = u_ref(pts, (0, 1))
            sign = align_sign(dh[:, 0], dr[:, 0])
            dh *= sign
            u_h = FEFunction(mesh=mesh, p=p,
                             node_values=sign * u_h.node_values,
                             node_slopes=sign * u_h.node_slopes,
                             bubbles=sign * u_h.bubbles)
            lam = float(spectrum.eigenvalues[m])
            record = StudyRecord(
                mesh_kind=kind.value,
                epsilon=epsilon,
                p=p,
                N=n,
                dof=dofmap.n_free,
                mode=m + 1,
                lambda_h=lam,
                lambda_err_pct=100.0 * abs(lam - lam_ref[m]) / abs(lam_ref[m]),
                energy_err_pct=energy_norm_error(u_h, u_ref, epsilon),
                maxnorm_u_pct=discrete_max_error(dh[:, 0], dr[:, 0]),
                maxnorm_du_pct=discrete_max_error(dh[:, 1], dr[:, 1]),
            )
            records.append(record)
            if on_record is not None:
                on_record(record)
    return StudyReport(records=tuple(records), reference=reference)
