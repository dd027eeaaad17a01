"""Solver for the generalized symmetric eigenproblem K u = lambda M u.

Both matrices come out of assembly symmetric positive definite, but their
conditioning is wildly different: K carries entries of size eps^2 / h^3,
around 1e9 on layer-adapted meshes, while M scales with h.  Reducing to an
ordinary eigenproblem via a Cholesky factor of M would put that 1e9 onto
the reduced matrix and cost the small eigenvalues most of their digits.

solve_smallest therefore works with mu = 1 / lambda.  It factors the band
of K = R^T R once and reduces the pencil to the standard problem

    C y = mu y,    C = R^{-T} M R^{-1},    u = R^{-1} y,

whose largest mu are the smallest lambda, recovered with near machine
relative accuracy.  For k < n, C is applied as an operator (two banded
triangular solves and one band product) in ARPACK's standard-mode
Lanczos (scipy.sparse.linalg.eigsh, which="LA"), so no dense n x n matrix
is formed.  ARPACK cannot return all n pairs, so k = n forms C densely and
calls eigh; the tests use that dense path as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded, eigh
from scipy.linalg.lapack import dtbtrs

from .assembly import SymBandMatrix
from .errors import (InvalidSpec, KTooLarge, NoConvergence,
                     NotPositiveDefinite, ZeroVector)

CLUSTER_RTOL = 1e-8
MAX_RESTARTS = 500          # cap on ARPACK's implicit restarts


@dataclass(frozen=True)
class SolverConfig:
    k: int
    tol: float = 1e-11

    def __post_init__(self):
        if self.k < 1:
            raise InvalidSpec(f"need at least one mode, got k={self.k}")
        if self.tol <= 0.0:
            raise InvalidSpec(f"tolerance must be positive, got {self.tol}")


@dataclass(frozen=True)
class Spectrum:
    """Computed lower spectrum, eigenvalues ascending, vectors M-normalized.

    residuals holds the backward-error measure
        ||K u - lambda M u|| / ((||K||_inf + |lambda| ||M||_inf) ||u||)
    per mode.  clustered flags eigenvalues whose neighbor gap is below
    CLUSTER_RTOL relatively; those eigenVECTORS are only defined up to
    rotation within the cluster.  iterations is the number of applications
    of C = R^{-T} M R^{-1} that Lanczos took, and 1 for the dense reduction
    that serves k = n.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    ortho_error: float
    clustered: np.ndarray
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


def _reduced_pairs(rband: np.ndarray, mu: np.ndarray, y: np.ndarray,
                   k: int):
    """The k largest mu of C and their y as lambda = 1/mu ascending and
    u = R^{-1} y."""
    sel = np.argsort(mu)[::-1][:k]                   # largest mu first
    if np.any(mu[sel] <= 0.0):
        raise KTooLarge(
            f"only {int(np.sum(mu > 0.0))} of the {len(mu)} modes can be "
            f"resolved: mu = 1/lambda of the highest modes falls below "
            f"rounding error"
        )
    return 1.0 / mu[sel], _tri_solve(rband, y[:, sel], "N")


def _solve_dense_reduce(K: SymBandMatrix, M: SymBandMatrix, k: int):
    rband = _factor_spd_band(K.band, "stiffness matrix")
    y = _tri_solve(rband, M.to_dense(), "T")         # R^{-T} M
    c = _tri_solve(rband, y.T, "T").T                # R^{-T} M R^{-1}
    mu, y = eigh(0.5 * (c + c.T))
    return _reduced_pairs(rband, mu, y, k)


def _solve_lanczos(K: SymBandMatrix, M: SymBandMatrix, config: SolverConfig):
    # imported here: scipy.sparse.linalg adds megabytes to every process
    from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                     eigsh)

    rband = _factor_spd_band(K.band, "stiffness matrix")
    applications = 0

    def apply_c(x):
        nonlocal applications
        applications += 1
        x = _tri_solve(rband, x, "N")                # R^{-1} x
        return _tri_solve(rband, M.matvec(x), "T")   # R^{-T} M R^{-1} x

    try:
        mu, y = eigsh(LinearOperator((K.n, K.n), matvec=apply_c, dtype=float),
                      k=config.k, which="LA", v0=np.ones(K.n),
                      tol=config.tol, maxiter=MAX_RESTARTS)
    except ArpackNoConvergence as exc:
        raise NoConvergence(
            f"Lanczos did not reach tol={config.tol} in {MAX_RESTARTS} "
            f"restarts ({len(exc.eigenvalues)} of {config.k} modes "
            f"converged)"
        ) from exc
    return (*_reduced_pairs(rband, mu, y, config.k), applications)


def solve_smallest(K: SymBandMatrix, M: SymBandMatrix,
                   config: SolverConfig) -> Spectrum:
    """Compute the k smallest eigenpairs of the pencil (K, M)."""
    if K.n != M.n:
        raise InvalidSpec(f"matrix sizes disagree: {K.n} vs {M.n}")
    if config.k > K.n:
        raise KTooLarge(f"asked for {config.k} modes but only {K.n} dofs")
    _factor_spd_band(M.band, "mass matrix")

    if config.k == K.n:                              # beyond ARPACK's reach
        lams, vecs = _solve_dense_reduce(K, M, config.k)
        iters = 1
    else:
        lams, vecs, iters = _solve_lanczos(K, M, config)

    vecs = _m_normalize(M, vecs)
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
        iterations=iters,
    )
