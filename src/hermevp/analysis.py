"""Error measurement, interpolation and eigenvalue convergence studies,
and log-log rate fitting.

Errors against a reference are reported in percent.  Max-norm errors are
relative to the sup of the reference over the sample set; the energy error
uses the norm induced by the bilinear form,

    |||v|||^2 = eps^2 ||v''||^2 + ||v'||^2 + ||v||^2,

integrated exactly on the union of the two meshes involved: on each of its
intervals both functions are single polynomials of degree at most p, so
every integrand has degree at most 2p, and the (p+1)-point Gauss rule,
exact to degree 2p+1, integrates it without error.
"""

from __future__ import annotations

from dataclasses import dataclass
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
                      epsilon: float, n_gauss: int = None):
    """Percent error |||u_h - u_ref||| / |||u_ref||| * 100, integrated with
    Gauss quadrature on the union of the two meshes.

    The default rule has max(p_h, p_ref) + 1 points per interval: both
    functions are polynomials of degree <= p there, the integrands have
    degree <= 2p, and p+1 Gauss points are exact to degree 2p+1.  A u_h
    with a mode axis gives one error per mode, against u_ref's modes in
    order, each equal bit for bit to the single-mode call; u_ref may hold
    more modes than u_h."""
    breaks = np.union1d(u_h.mesh.nodes, u_ref.mesh.nodes)
    if n_gauss is None:
        n_gauss = max(u_h.p, u_ref.p) + 1
    rule = gauss_rule(n_gauss)
    widths = np.diff(breaks)
    w = (widths[:, None] * rule.weights[None, :]).ravel()

    def derivatives(u):
        # placed in each element's local coordinate, not at points x: near
        # x = 1 doubles are 1.1e-16 apart, a sizeable part of a layer
        # element of width ~eps/N
        nodes = u.mesh.nodes
        e = np.searchsorted(nodes, breaks[:-1], side="right") - 1
        t = ((breaks[:-1] - nodes[e])[:, None]
             + widths[:, None] * rule.points[None, :]) / u.mesh.widths[e, None]
        out = u(t.ravel(), (0, 1, 2), element=np.repeat(e, rule.n_points))
        return out.reshape(len(w), 3, -1)       # (point, order, mode)

    dh = derivatives(u_h)
    dr = derivatives(u_ref)
    if dr.shape[2] < dh.shape[2]:
        raise DimensionMismatch(f"u_h has {dh.shape[2]} modes, u_ref only "
                                f"{dr.shape[2]}")
    errors = []
    for m in range(dh.shape[2]):
        err_sq = 0.0
        ref_sq = 0.0
        for j, factor in enumerate((1.0, 1.0, epsilon**2)):
            err_sq += factor * float(w @ (dh[:, j, m] - dr[:, j, m]) ** 2)
            ref_sq += factor * float(w @ dr[:, j, m]**2)
        if ref_sq <= 0.0:
            raise NonpositiveError("reference function has zero energy norm")
        errors.append(100.0 * np.sqrt(err_sq / ref_sq))
    return errors[0] if u_h.node_values.ndim == 1 else np.array(errors)


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
    # the least-squares line in closed form, from sums of centred logs
    x = logn - logn.mean()
    y = loge - loge.mean()
    sxx = float(x @ x)
    if sxx == 0.0:
        raise TooFewPoints(f"need two distinct sizes, got {ns.tolist()}")
    rate = float(x @ y) / sxx
    return SlopeFit(slope=-rate,
                    intercept=float(loge.mean() - rate * logn.mean()),
                    max_log_residual=float(np.abs(y - rate * x).max()),
                    ns=tuple(ns), errors=tuple(errors))


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


INTERP_SAMPLES = 200
INTERP_GAUSS = 12


def interp_rate_study(mesh_kind, epsilon: float, beta: float, p: int,
                      n_values: Sequence[int]) -> InterpReport:
    """Interpolate the left layer function exp(-beta x / epsilon) with the
    C1 space on each mesh in the ladder and record the three error metrics:
    the sup errors of the value and slope over INTERP_SAMPLES equally
    spaced points per element, ends included, and sqrt(epsilon) times the
    H2 seminorm error, with an INTERP_GAUSS-point Gauss rule per element.

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
    grule = gauss_rule(INTERP_GAUSS)
    xi = np.linspace(0.0, 1.0, INTERP_SAMPLES)

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
        # values and slopes in one located pass, turned in place into the
        # errors I f - f and (I f)' - f'
        err = interp(x0, (0, 1))
        err -= eval_layer_function(x0, epsilon, beta, deriv=(0, 1))
        e0, e1 = np.abs(err, out=err).max(axis=0)

        xg = (nodes[:-1, None]
              + mesh.widths[:, None] * grule.points[None, :]).ravel()
        wg = (mesh.widths[:, None] * grule.weights[None, :]).ravel()
        d2 = eval_layer_function(xg, epsilon, beta, deriv=2) - interp(xg, deriv=2)
        h2 = np.sqrt(epsilon) * np.sqrt(float(wg @ d2**2))

        records.append(InterpRecord(
            n_elements=n,
            max_err=float(e0),
            max_err_d1=float(e1),
            scaled_h2_err=h2,
        ))
    return InterpReport(mesh_kind=kind, epsilon=epsilon, beta=beta, p=p,
                        records=tuple(records))


@dataclass(frozen=True)
class ReferenceSolution:
    """Fine-mesh solve used as ground truth for a convergence ladder."""

    mesh: Mesh
    spectrum: Spectrum
    function: FEFunction    # every mode, along its trailing axis


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
    return ReferenceSolution(
        mesh=mesh, spectrum=spectrum,
        function=FEFunction.from_dof_vector(mesh, dofmap,
                                            spectrum.eigenvectors))


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


ERROR_METRICS = ("lambda_err_pct", "energy_err_pct",
                 "maxnorm_u_pct", "maxnorm_du_pct")


@dataclass(frozen=True)
class StudyReport:
    records: tuple

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

    def slope_blocks(self) -> dict:
        """Fitted orders against dof per metric and mode, skipping series
        the fit rejects (too short, or errors at rounding level)."""
        out = {}
        for metric in ERROR_METRICS:
            per_mode = {}
            for mode in self.modes():
                try:
                    fit = self.order(mode, metric, "dof")
                except (TooFewPoints, NonpositiveError):
                    continue
                per_mode[str(mode)] = {
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "max_log_residual": fit.max_log_residual,
                    "vs": "dof",
                }
            if per_mode:
                out[metric] = per_mode
        return out


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
        if ref_n is None:
            ref_n = default_reference_n(n_values)
        reference = compute_reference(kind, epsilon, beta, p, ref_n, coeffs,
                                      modes, tol=tol)
    lam_ref = reference.spectrum.eigenvalues
    shapes = shape_table(p)

    records = []
    for n in n_values:
        mesh = build_mesh(MeshSpec(epsilon=epsilon, beta=beta, p=p,
                                   n_elements=n, kind=kind))
        K, M, dofmap = assemble(mesh, shapes, coeffs)
        spectrum = solve_smallest(K, M, SolverConfig(k=modes, tol=tol))
        pts = sample_points(mesh, per_region)
        # every mode in one located pass: columns (u, u') per mode;
        # flipping the samples' sign is exact
        vecs = spectrum.eigenvectors
        dh = FEFunction.from_dof_vector(mesh, dofmap, vecs)(pts, (0, 1))
        dr = reference.function(pts, (0, 1))
        signs = np.array([align_sign(dh[:, 0, m], dr[:, 0, m])
                          for m in range(modes)])
        dh *= signs
        u_h = FEFunction.from_dof_vector(mesh, dofmap, signs * vecs)
        energy = energy_norm_error(u_h, reference.function, epsilon)
        for m in range(modes):
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
                energy_err_pct=float(energy[m]),
                maxnorm_u_pct=discrete_max_error(dh[:, 0, m], dr[:, 0, m]),
                maxnorm_du_pct=discrete_max_error(dh[:, 1, m], dr[:, 1, m]),
            )
            records.append(record)
            if on_record is not None:
                on_record(record)
    return StudyReport(records=tuple(records))
