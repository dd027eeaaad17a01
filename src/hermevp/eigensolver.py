"""Solvers for the generalized symmetric eigenproblem K u = lambda M u.

Both matrices come out of assembly symmetric positive definite, but their
conditioning is wildly different: K carries entries of size eps^2 / h^3,
around 1e9 on layer-adapted meshes, while M scales with h.  Reducing to an
ordinary eigenproblem via a Cholesky factor of M would put that 1e9 onto
the reduced matrix and cost the small eigenvalues most of their digits.

The dense path therefore factors K = R^T R and solves

    R^{-T} M R^{-1} y = mu y,   mu = 1 / lambda,

so the smallest lambda become the LARGEST mu of a well-behaved dense
symmetric matrix and are recovered with near machine relative accuracy.

The shift-invert path factors the band of K - shift*M once and hands
banded solves with that factor to ARPACK's shift-invert Lanczos
(scipy.sparse.linalg.eigsh); it never forms a dense matrix and suits large
n with few wanted modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh
from scipy.linalg.lapack import dtbtrs

from .assembly import SymBandMatrix
from .errors import (InvalidSpec, KTooLarge, NoConvergence,
                     NotPositiveDefinite, ZeroVector)

CLUSTER_RTOL = 1e-8


class Method(str, Enum):
    DENSE_REDUCE = "dense-reduce"
    SHIFT_INVERT = "shift-invert"


@dataclass(frozen=True)
class SolverConfig:
    k: int
    tol: float = 1e-11
    max_iter: int = 500
    shift: float = 0.0
    method: Method = Method.DENSE_REDUCE

    def __post_init__(self):
        if self.k < 1:
            raise InvalidSpec(f"need at least one mode, got k={self.k}")
        if self.tol <= 0.0:
            raise InvalidSpec(f"tolerance must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidSpec(f"max_iter must be >= 1, got {self.max_iter}")
        object.__setattr__(self, "method", Method(self.method))


@dataclass(frozen=True)
class Spectrum:
    """Computed lower spectrum, eigenvalues ascending, vectors M-normalized.

    residuals holds the backward-error measure
        ||K u - lambda M u|| / ((||K||_inf + |lambda| ||M||_inf) ||u||)
    per mode.  clustered flags eigenvalues whose neighbor gap is below
    CLUSTER_RTOL relatively; those eigenVECTORS are only defined up to
    rotation within the cluster.  iterations is 1 for dense reduce and the
    number of banded solves with the shifted factor for shift-invert.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    ortho_error: float
    clustered: np.ndarray
    method: Method
    iterations: int = 0

    def __post_init__(self):
        for arr in (self.eigenvalues, self.eigenvectors,
                    self.residuals, self.clustered):
            arr.setflags(write=False)


def _factor_spd_band(band: np.ndarray, what: str) -> np.ndarray:
    try:
        return cholesky_banded(band, lower=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{what} is not positive definite: {exc}") from exc


def residual_norms(K: SymBandMatrix, M: SymBandMatrix, lams: np.ndarray,
                   vecs: np.ndarray) -> np.ndarray:
    """Backward-error residuals, one per column of vecs."""
    nk = K.norm_inf()
    nm = M.norm_inf()
    out = np.empty(len(lams))
    for i, lam in enumerate(lams):
        u = vecs[:, i]
        nu = np.linalg.norm(u)
        if nu == 0.0:
            raise ZeroVector(f"eigenvector {i} is zero")
        r = K.matvec(u) - lam * M.matvec(u)
        out[i] = np.linalg.norm(r) / ((nk + abs(lam) * nm) * nu)
    return out


def _cluster_flags(lams: np.ndarray) -> np.ndarray:
    flags = np.zeros(len(lams), dtype=bool)
    for i in range(len(lams) - 1):
        gap = abs(lams[i + 1] - lams[i])
        if gap < CLUSTER_RTOL * max(abs(lams[i]), abs(lams[i + 1]), 1.0):
            flags[i] = flags[i + 1] = True
    return flags


def _m_normalize(M: SymBandMatrix, vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for i in range(out.shape[1]):
        s = out[:, i] @ M.matvec(out[:, i])
        if s <= 0.0:
            raise NotPositiveDefinite(f"u^T M u = {s} for eigenvector {i}")
        out[:, i] /= np.sqrt(s)
        j = int(np.argmax(np.abs(out[:, i])))
        if out[j, i] < 0.0:
            out[:, i] = -out[:, i]
    return out


def _ortho_error(M: SymBandMatrix, vecs: np.ndarray) -> float:
    g = vecs.T @ np.column_stack([M.matvec(vecs[:, i])
                                  for i in range(vecs.shape[1])])
    return float(np.abs(g - np.eye(vecs.shape[1])).max())


def _tri_solve(rband: np.ndarray, b: np.ndarray, trans: str) -> np.ndarray:
    x, info = dtbtrs(rband, b, uplo="U", trans=trans, diag="N")
    if info != 0:
        raise NotPositiveDefinite(f"triangular band solve failed, info={info}")
    return x


def _solve_dense_reduce(K: SymBandMatrix, M: SymBandMatrix,
                        config: SolverConfig):
    rband = _factor_spd_band(K.band, "stiffness matrix")
    y = _tri_solve(rband, M.to_dense(), "T")         # R^{-T} M
    c = _tri_solve(rband, y.T, "T").T                # R^{-T} M R^{-1}
    c = 0.5 * (c + c.T)
    mu, z = eigh(c)
    sel = np.argsort(mu)[::-1][:config.k]            # largest mu first
    mu_sel = mu[sel]
    if np.any(mu_sel <= 0.0):
        raise NotPositiveDefinite(
            "reduced matrix has non-positive eigenvalues; M is not definite"
        )
    lams = 1.0 / mu_sel
    vecs = _tri_solve(rband, z[:, sel], "N")         # u = R^{-1} y
    return lams, vecs, 1


def _solve_shift_invert(K: SymBandMatrix, M: SymBandMatrix,
                        config: SolverConfig):
    # imported here: scipy.sparse.linalg adds megabytes to every process
    from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                     eigsh)

    n = K.n
    if config.k >= n:                                # beyond ARPACK's reach
        return _solve_dense_reduce(K, M, config)
    shifted = K.band
    if config.shift != 0.0:
        if M.bandwidth != K.bandwidth or M.n != n:
            raise InvalidSpec("K and M band layouts disagree")
        shifted = K.band - config.shift * M.band
    factor = _factor_spd_band(shifted, "shifted matrix K - shift*M")

    solves = 0

    def solve(b):
        nonlocal solves
        solves += 1
        return cho_solve_banded((factor, False), b)

    def operator(matvec):
        return LinearOperator((n, n), matvec=matvec, dtype=float)

    try:
        lams, vecs = eigsh(operator(K.matvec), k=config.k,
                           M=operator(M.matvec), sigma=config.shift,
                           OPinv=operator(solve), v0=np.ones(n),
                           tol=config.tol, maxiter=config.max_iter)
    except ArpackNoConvergence as exc:
        raise NoConvergence(
            f"shift-invert Lanczos did not reach tol={config.tol} in "
            f"{config.max_iter} restarts ({len(exc.eigenvalues)} of "
            f"{config.k} modes converged)"
        ) from exc
    return lams, vecs, solves


def solve_smallest(K: SymBandMatrix, M: SymBandMatrix,
                   config: SolverConfig) -> Spectrum:
    """Compute the k smallest eigenpairs of the pencil (K, M)."""
    if K.n != M.n:
        raise InvalidSpec(f"matrix sizes disagree: {K.n} vs {M.n}")
    if config.k > K.n:
        raise KTooLarge(f"asked for {config.k} modes but only {K.n} dofs")
    _factor_spd_band(M.band, "mass matrix")

    if config.method is Method.DENSE_REDUCE:
        lams, vecs, iters = _solve_dense_reduce(K, M, config)
    else:
        lams, vecs, iters = _solve_shift_invert(K, M, config)

    order = np.argsort(lams)
    lams = np.ascontiguousarray(lams[order])
    vecs = _m_normalize(M, vecs[:, order])
    res = residual_norms(K, M, lams, vecs)
    headroom = 1e2 * config.tol
    if np.any(res > headroom):
        raise NoConvergence(
            f"residual {float(res.max())} exceeds {headroom} "
            f"(100x the configured tolerance)"
        )
    return Spectrum(
        eigenvalues=lams,
        eigenvectors=vecs,
        residuals=res,
        ortho_error=_ortho_error(M, vecs),
        clustered=_cluster_flags(lams),
        method=config.method,
        iterations=iters,
    )
