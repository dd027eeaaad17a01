"""The discretize-and-solve pipeline, error measurement, interpolation
and eigenvalue convergence studies, and log-log rate fitting.

Errors against a reference are reported in percent, up to the sign an
eigenvector lacks.  Max-norm errors are relative to the sup of the
reference over the sample set; the energy error uses the norm induced by
the bilinear form,

    |||v|||^2 = eps^2 ||v''||^2 + ||v'||^2 + ||v||^2,

integrated exactly on the union of the two meshes involved: on each of its
intervals both functions are single polynomials of degree at most p, so
every integrand has degree at most 2p, and the (p+1)-point Gauss rule,
exact to degree 2p+1, integrates it without error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .assembly import CoefficientSet, FEFunction, Space, assemble
from .eigensolver import SolverConfig, Spectrum, solve_smallest
from .element import (HermiteData, eval_layer_function, gauss_rule,
                      hermite_interpolant)
from .errors import (AmbiguousSign, AssumptionViolated, DimensionMismatch,
                     InvalidLayerWidth, InvalidSpec, KTooLarge,
                     NonpositiveError, TooFewPoints, ZeroVector)
from .mesh import Mesh, MeshKind, MeshSpec, build_mesh

SIGN_RTOL = 1e-8


def align_sign(u_samples: np.ndarray, ref_samples: np.ndarray):
    """Return +1.0 or -1.0 so that sign * u matches the reference, one
    per column of samples with a trailing mode axis.

    Eigenvectors come out of the solver with arbitrary sign; comparisons
    need the two orientations reconciled first.  Raises AmbiguousSign when
    a column's sampled inner product is too close to zero to decide, which
    happens when the samples miss the support or the modes do not match.
    """
    u = np.asarray(u_samples, dtype=float)
    r = np.asarray(ref_samples, dtype=float)
    nu = np.linalg.norm(u, axis=0)
    nr = np.linalg.norm(r, axis=0)
    if np.any(nu == 0.0) or np.any(nr == 0.0):
        raise ZeroVector("cannot align the sign of a zero sample vector")
    ip = (u * r).sum(axis=0)
    ambiguous = np.abs(ip) < SIGN_RTOL * nu * nr
    if np.any(ambiguous):
        raise AmbiguousSign(
            f"inner product {ip[ambiguous][0]} is below {SIGN_RTOL} "
            "relative; the two functions do not share a dominant component"
        )
    return np.sign(ip)


def energy_norm_error(u_h: FEFunction, u_ref: FEFunction):
    """Percent error |||u_h -+ u_ref||| / |||u_ref||| * 100 against the
    nearer of +-u_ref, so either sign of u_h gives the same value bit for
    bit, with the eps of u_ref's mesh spec, integrated with Gauss
    quadrature on the union of the two meshes.

    The rule has max(p_h, p_ref) + 1 points per interval: both
    functions are polynomials of degree <= p there, the integrands have
    degree <= 2p, and p+1 Gauss points are exact to degree 2p+1.  A u_h
    with a mode axis gives one error per mode, against u_ref's modes in
    order, each equal bit for bit to the single-mode call; u_ref may hold
    more modes than u_h."""
    breaks = np.union1d(u_h.mesh.nodes, u_ref.mesh.nodes)
    rule = gauss_rule(max(u_h.p, u_ref.p) + 1)
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
        minus = plus = ref_sq = 0.0
        for j, factor in enumerate((1.0, 1.0, u_ref.mesh.spec.epsilon**2)):
            minus += factor * float(w @ (dh[:, j, m] - dr[:, j, m]) ** 2)
            plus += factor * float(w @ (dh[:, j, m] + dr[:, j, m]) ** 2)
            ref_sq += factor * float(w @ dr[:, j, m]**2)
        if ref_sq <= 0.0:
            raise NonpositiveError("reference function has zero energy norm")
        errors.append(100.0 * np.sqrt(min(minus, plus) / ref_sq))
    return errors[0] if u_h.node_values.ndim == 1 else np.array(errors)


SAMPLES_PER_REGION = 1000


def sample_points(mesh: Mesh) -> np.ndarray:
    """Evaluation points covering the mesh, region-aware.

    Layer-adapted meshes get n = SAMPLES_PER_REGION points in each of the
    two layer strips and the interior, so the layers are not starved of
    samples; uniform meshes get one sweep of 3n.  Mesh nodes are always
    included.
    """
    n = SAMPLES_PER_REGION
    if mesh.spec.kind is MeshKind.UNIFORM:
        pts = np.linspace(0.0, 1.0, 3 * n)
    else:
        t = mesh.transition_left()
        if not 0.0 < t < 0.5:
            raise InvalidLayerWidth(f"transition abscissa {t} not in (0, 1/2)")
        pts = np.concatenate([
            np.linspace(0.0, t, n),
            np.linspace(t, 1.0 - t, n),
            np.linspace(1.0 - t, 1.0, n),
        ])
    return np.unique(np.concatenate([pts, mesh.nodes]))


def discrete_max_error(u_h_samples: np.ndarray, ref_samples: np.ndarray):
    """Percent sup-norm error of samples of u_h against samples of the
    reference at the same points, relative to the sup of the reference
    there.  Samples with a trailing mode axis give one error per column,
    a 1-D pair a scalar; the signs are the caller's to align."""
    dh = np.asarray(u_h_samples, dtype=float)
    dr = np.asarray(ref_samples, dtype=float)
    if dh.shape != dr.shape:
        raise DimensionMismatch(f"sample shapes {dh.shape} and {dr.shape} "
                                "differ")
    n_points = len(dr) if dr.ndim else 1
    if n_points < 2:
        raise TooFewPoints(f"got {n_points} evaluation points")
    denom = np.abs(dr).max(axis=0)
    if np.any(denom <= 0.0):
        raise NonpositiveError("reference is identically zero on the samples")
    return 100.0 * np.abs(dh - dr).max(axis=0) / denom


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


def fit_slope(ns: Sequence[float], errors: Sequence[float]) -> SlopeFit:
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(ns) != len(errors):
        raise DimensionMismatch(
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
                    max_log_residual=float(np.abs(y - rate * x).max()))


@dataclass(frozen=True)
class InterpRecord:
    """One rung of an interpolation ladder, one row of interp.csv."""

    mesh_kind: str
    epsilon: float
    beta: float
    p: int
    N: int
    max_err: float          # sup |f - I f|
    max_err_d1: float       # sup |(f - I f)'|
    scaled_h2_err: float    # sqrt(eps) * |f - I f|_{H^2}


@dataclass(frozen=True)
class InterpReport:
    records: tuple

    def series(self, metric: str):
        return ([r.N for r in self.records],
                [getattr(r, metric) for r in self.records])

    def order(self, metric: str) -> SlopeFit:
        return fit_slope(*self.series(metric))


INTERP_SAMPLES = 200
INTERP_GAUSS = 12
# elements per block of the sup-error sweep: 20 * INTERP_SAMPLES = 4000
# points at a time, whatever N, where one pass would hold INTERP_SAMPLES N
INTERP_BLOCK = 20


def interp_rate_study(mesh_kind, epsilon: float, beta: float, p: int,
                      n_values: Sequence[int]) -> InterpReport:
    """Interpolate the left layer function exp(-beta x / epsilon) with the
    C1 space on each mesh in the ladder and record the three error metrics:
    the sup errors of the value and slope over INTERP_SAMPLES equally
    spaced points per element, ends included, and sqrt(epsilon) times the
    H2 seminorm error, with an INTERP_GAUSS-point Gauss rule per element.
    The sup errors are swept INTERP_BLOCK elements at a time, keeping the
    running maximum, so a rung's memory is O(N); a maximum does not depend
    on the order it is taken in, so each is the one-pass sweep's bit for
    bit.  The H2 sum stays one pass, since blocks would reorder it.

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
        values, slopes = eval_layer_function(nodes, epsilon, beta,
                                             deriv=(0, 1)).T
        interp = hermite_interpolant(
            HermiteData(nodes=nodes, values=values, slopes=slopes), group)

        sup = np.zeros(2)
        for lo in range(0, n, INTERP_BLOCK):
            hi = lo + INTERP_BLOCK
            x0 = (nodes[:-1][lo:hi, None]
                  + mesh.widths[lo:hi, None] * xi[None, :]).ravel()
            # values and slopes in one located pass, turned in place into
            # the errors I f - f and (I f)' - f'
            err = interp(x0, (0, 1))
            err -= eval_layer_function(x0, epsilon, beta, deriv=(0, 1))
            np.maximum(sup, np.abs(err, out=err).max(axis=0), out=sup)
        e0, e1 = sup

        xg = (nodes[:-1, None]
              + mesh.widths[:, None] * grule.points[None, :]).ravel()
        wg = (mesh.widths[:, None] * grule.weights[None, :]).ravel()
        d2 = eval_layer_function(xg, epsilon, beta, deriv=2) - interp(xg, deriv=2)
        h2 = np.sqrt(epsilon) * np.sqrt(float(wg @ d2**2))

        records.append(InterpRecord(
            mesh_kind=kind.value, epsilon=epsilon, beta=beta, p=p, N=n,
            max_err=float(e0), max_err_d1=float(e1), scaled_h2_err=h2))
    return InterpReport(records=tuple(records))


@dataclass(frozen=True)
class Solution:
    """What solve returns; function holds every mode, along its last axis."""

    space: Space
    spectrum: Spectrum
    function: FEFunction

    @property
    def mesh(self) -> Mesh:
        return self.space.mesh


def solve(spec: MeshSpec, coeffs: CoefficientSet,
          config: SolverConfig) -> Solution:
    """The paper's chain on one mesh: build it, assemble the pencil of
    its degree spec.p space, and solve for its config.k smallest
    eigenpairs."""
    space = Space(build_mesh(spec), spec.p)
    K, M = assemble(space, coeffs)
    spectrum = solve_smallest(K, M, config)
    return Solution(space=space, spectrum=spectrum,
                    function=FEFunction.from_dof_vector(
                        space, spectrum.eigenvectors))


def default_reference_n(n_values: Sequence[int]) -> int:
    return max(512, 8 * max(n_values))


def compute_reference(spec: MeshSpec, coeffs: CoefficientSet,
                      config: SolverConfig) -> Solution:
    """The fine-mesh solve a convergence ladder is measured against."""
    return solve(spec, coeffs, config)


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

    def series(self, mode: int, metric: str):
        """mode's (dofs, values of metric): every fit is against dof."""
        rows = [r for r in self.records if r.mode == mode]
        return [r.dof for r in rows], [getattr(r, metric) for r in rows]

    def order(self, mode: int, metric: str) -> SlopeFit:
        return fit_slope(*self.series(mode, metric))

    def slope_blocks(self) -> dict:
        """Fitted orders against dof per metric and mode, skipping series
        the fit rejects (too short, or errors at rounding level)."""
        out = {}
        for metric in ERROR_METRICS:
            per_mode = {}
            for mode in self.modes():
                try:
                    fit = self.order(mode, metric)
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


def check_study(ref_spec: MeshSpec, n_values: Sequence[int],
                config: SolverConfig) -> None:
    """Refuse, before any solve, a ladder no study could score: a mesh,
    the reference's or a rung's, that build_mesh refuses (such as an
    epsilon so small that its nodes collapse), a reference no finer than
    its largest size, or config.k at or above its smallest mesh's free
    dofs.  build_mesh caches each mesh, so the study's solves reuse them."""
    n_ref, n_min, n_max = ref_spec.n_elements, min(n_values), max(n_values)
    meshes = {n: build_mesh(replace(ref_spec, n_elements=n))
              for n in (n_ref, *n_values)}
    if n_ref <= n_max:
        raise InvalidSpec(f"the reference mesh size {n_ref} must exceed "
                          f"the largest mesh size {n_max}")
    n_free = Space(meshes[n_min], ref_spec.p).n_free
    if config.k >= n_free:
        raise KTooLarge(f"asked for {config.k} modes, but the mesh with "
                        f"N={n_min} has {n_free} dofs, of which "
                        f"ARPACK returns at most n - 1 = {n_free - 1}")


def convergence_study(ref_spec: MeshSpec, n_values: Sequence[int],
                      coeffs: CoefficientSet, config: SolverConfig,
                      on_record: Callable = None) -> StudyReport:
    """Solve the eigenproblem on ref_spec with each size of n_values,
    compare each mode to the solve on ref_spec itself, the reference, and
    tabulate the errors.  check_study refuses the ladder first.

    on_record, when given, receives each StudyRecord as soon as it exists,
    so callers can flush partial results even if a later grid point fails.
    """
    n_values = sorted(int(n) for n in n_values)
    check_study(ref_spec, n_values, config)
    reference = compute_reference(ref_spec, coeffs, config)
    lam_ref = reference.spectrum.eigenvalues
    modes, epsilon = config.k, ref_spec.epsilon

    records = []
    for n in n_values:
        rung = solve(replace(ref_spec, n_elements=n), coeffs, config)
        pts = sample_points(rung.mesh)
        # every mode in one located pass: columns (u, u') per mode;
        # flipping the samples' sign is exact
        dh = rung.function(pts, (0, 1))
        dr = reference.function(pts, (0, 1))
        dh *= align_sign(dh[:, 0], dr[:, 0])
        max_u, max_du = (discrete_max_error(dh[:, j], dr[:, j])
                         for j in (0, 1))
        energy = energy_norm_error(rung.function, reference.function)
        for m in range(modes):
            lam = float(rung.spectrum.eigenvalues[m])
            record = StudyRecord(
                mesh_kind=ref_spec.kind.value,
                epsilon=epsilon,
                p=ref_spec.p,
                N=n,
                dof=rung.space.n_free,
                mode=m + 1,
                lambda_h=lam,
                lambda_err_pct=100.0 * abs(lam - lam_ref[m]) / abs(lam_ref[m]),
                energy_err_pct=float(energy[m]),
                maxnorm_u_pct=float(max_u[m]),
                maxnorm_du_pct=float(max_du[m]),
            )
            records.append(record)
            if on_record is not None:
                on_record(record)
    return StudyReport(records=tuple(records))
