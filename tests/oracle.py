"""Dense references the tests hold the banded library code to.

Nothing in hermevp calls these: the library never forms an n x n array.
They serve small pencils, where a dense matrix costs nothing.
"""

import numpy as np
from scipy.linalg import eigh

from hermevp.eigensolver import _factor_spd_band, _reduced_pairs, _tri_solve


def to_dense(A) -> np.ndarray:
    """The full symmetric matrix a SymBandMatrix stores."""
    out = np.zeros((A.n, A.n))
    for d in range(A.bandwidth + 1):
        diag = A.band[A.bandwidth - d, d:]
        idx = np.arange(A.n - d)
        out[idx, idx + d] = diag
        out[idx + d, idx] = diag
    return out


def pencil_eigenvalues(K, M, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the dense pair, from eigh(K, M)."""
    return eigh(to_dense(K), to_dense(M), eigvals_only=True)[:k]


def dense_reduce(K, M, k: int):
    """The k smallest eigenpairs of (K, M) as (lambda ascending, u), from
    eigh of the reduced C = R^{-T} M R^{-1} formed densely, K = R^T R."""
    rband = _factor_spd_band(K.band, "stiffness matrix")
    y = _tri_solve(rband, to_dense(M), "T")          # R^{-T} M
    c = _tri_solve(rband, y.T, "T").T                # R^{-T} M R^{-1}
    mu, y = eigh(0.5 * (c + c.T))
    return _reduced_pairs(rband, mu, y, k)
