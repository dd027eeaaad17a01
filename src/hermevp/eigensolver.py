"""Solver for the generalized symmetric eigenproblem K u = lambda M u.

Both matrices come out of assembly symmetric positive definite, but their
conditioning is wildly different: K carries entries of size eps^2 / h^3,
around 1e9 on layer-adapted meshes, while M scales with h.  Reducing to an
ordinary eigenproblem via a Cholesky factor of M would put that 1e9 onto
the reduced matrix and cost the small eigenvalues most of their digits.

solve_smallest therefore works with mu = 1 / lambda.  It factors the band
of K = R^T R once and reduces the pencil to the standard problem

    C y = mu y,    C = R^{-T} M R^{-1},    u = R^{-1} y,

whose largest mu are the smallest lambda.  The reduced problem is solved
to near machine relative accuracy, but that does not reach back into the
assembled pencil: K and M carry rounding of their own, which grows with
N.  On the constant-coefficient problem at eps = 1e-6 and p = 3, lambda_1
of the assembled pencil at N = 1024 lies about 2e-12 relative below the
closed-form value, where a conforming method in exact arithmetic stays
above it.

C is applied as an operator (two banded triangular solves and one band
product) in ARPACK's standard-mode Lanczos (scipy.sparse.linalg.eigsh,
which="LA"), so no dense n x n matrix is formed.  Lanczos keeps
ncv = min(n, 2k + 2) vectors: the k wanted and k + 2 spare, the ncv >= 2k
the ARPACK Users' Guide (Lehoucq, Sorensen & Yang, SIAM 1998) advises.
More spares buy little here: mu = 1/lambda falls off as fast as the
eigenvalues grow, so the wanted end of C's spectrum is well separated
from the rest, and every extra vector adds to the cost of each restart
and of the final dseupd.  ARPACK returns at most n - 1 pairs, so a
request for k >= n is refused before anything is factored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded
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
        if not 0.0 < self.tol < np.inf:
            raise InvalidSpec(f"tolerance must be positive and finite, "
                              f"got {self.tol}")


@dataclass(frozen=True)
class Spectrum:
    """Computed lower spectrum, eigenvalues ascending, vectors M-normalized
    (u = R^{-1} y / sqrt(mu), as u^T M u = y^T C y = mu), each with its
    largest entry positive.

    residuals holds the backward-error measure
        ||K u - lambda M u|| / ((||K||_inf + |lambda| ||M||_inf) ||u||)
    per mode.  clustered flags eigenvalues whose neighbor gap is below
    CLUSTER_RTOL relatively; those eigenVECTORS are only defined up to
    rotation within the cluster.  iterations is the number of
    applications of C = R^{-T} M R^{-1} that Lanczos took.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
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
    """Backward-error residuals, one per column of vecs.  A residual that
    overflows reads inf or nan, without a warning, for the caller to
    refuse."""
    nk = K.norm_inf()
    nm = M.norm_inf()
    out = np.empty(len(lams))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, lam in enumerate(lams):
            u = vecs[:, i]
            nu = np.linalg.norm(u)
            if nu == 0.0:
                raise ZeroVector(f"eigenvector {i} is zero")
            r = K.matvec(u) - lam * M.matvec(u)
            out[i] = np.linalg.norm(r) / ((nk + abs(lam) * nm) * nu)
    return out


def _cluster_flags(lams: np.ndarray) -> np.ndarray:
    mag = np.maximum(np.abs(lams), 1.0)
    close = np.abs(np.diff(lams)) < CLUSTER_RTOL * np.maximum(mag[:-1],
                                                               mag[1:])
    flags = np.zeros(len(lams), dtype=bool)
    flags[:-1] |= close
    flags[1:] |= close
    return flags


def _tri_solve(rband: np.ndarray, b: np.ndarray, trans: str) -> np.ndarray:
    x, info = dtbtrs(rband, b, uplo="U", trans=trans, diag="N")
    if info != 0:
        raise NotPositiveDefinite(f"triangular band solve failed, info={info}")
    return x


def _reduced_pairs(rband: np.ndarray, mu: np.ndarray, y: np.ndarray,
                   k: int):
    """The k largest mu of C and their unit y as lambda = 1/mu ascending
    and u = R^{-1} y / sqrt(mu), largest entry positive: u^T M u = y^T C y
    = mu, so u is M-normalized to within the residual ||C y - mu y|| / mu."""
    sel = np.argsort(mu)[::-1][:k]                   # largest mu first
    if np.any(mu[sel] <= 0.0):
        raise KTooLarge(
            f"only {int(np.sum(mu > 0.0))} of the {len(mu)} modes can be "
            f"resolved: mu = 1/lambda of the highest modes falls below "
            f"rounding error"
        )
    u = _tri_solve(rband, y[:, sel], "N")
    peak = u[np.argmax(np.abs(u), axis=0), np.arange(len(sel))]
    return 1.0 / mu[sel], u / np.copysign(np.sqrt(mu[sel]), peak)


def solve_smallest(K: SymBandMatrix, M: SymBandMatrix,
                   config: SolverConfig) -> Spectrum:
    """Compute the k smallest eigenpairs of the pencil (K, M)."""
    # imported here: scipy.sparse.linalg adds megabytes to every process
    from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                     eigsh)

    if K.n != M.n:
        raise InvalidSpec(f"matrix sizes disagree: {K.n} vs {M.n}")
    if config.k >= K.n:
        raise KTooLarge(f"asked for {config.k} modes of {K.n} dofs, but "
                        f"ARPACK returns at most n - 1 = {K.n - 1}")
    _factor_spd_band(M.band, "mass matrix")
    rband = _factor_spd_band(K.band, "stiffness matrix")
    applications = 0

    def apply_c(x):
        nonlocal applications
        applications += 1
        x = _tri_solve(rband, x, "N")                # R^{-1} x
        return _tri_solve(rband, M.matvec(x), "T")   # R^{-T} M R^{-1} x

    try:
        mu, y = eigsh(LinearOperator((K.n, K.n), matvec=apply_c, dtype=float),
                      k=config.k, ncv=min(K.n, 2 * config.k + 2),
                      which="LA", v0=np.ones(K.n), tol=config.tol,
                      maxiter=MAX_RESTARTS)
    except ArpackNoConvergence as exc:
        raise NoConvergence(
            f"Lanczos did not reach tol={config.tol} in {MAX_RESTARTS} "
            f"restarts ({len(exc.eigenvalues)} of {config.k} modes "
            f"converged)"
        ) from exc
    lams, vecs = _reduced_pairs(rband, mu, y, config.k)
    res = residual_norms(K, M, lams, vecs)
    headroom = 1e2 * config.tol
    if not np.all(res <= headroom):               # nan fails as well
        raise NoConvergence(
            f"residual {float(np.max(res))} exceeds {headroom} "
            f"(100x the configured tolerance)"
        )
    return Spectrum(
        eigenvalues=lams,
        eigenvectors=vecs,
        residuals=res,
        clustered=_cluster_flags(lams),
        iterations=applications,
    )
