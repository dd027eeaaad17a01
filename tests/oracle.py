"""References the tests hold the library code to.

Nothing in hermevp calls these.  The dense ones serve small pencils, where
an n x n matrix costs nothing; the library never forms one.  The others
keep earlier, plainer forms of two kernels that the library's faster
forms must match bit for bit: assembly from full local matrices, and one
Horner pass per derivative order.
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


def full_matrix_bands(space, coeffs):
    """The K and M bands from every element's full (p+1) x (p+1) local
    matrices, one einsum per coefficient term over all (i, k), scattered
    through a mask of the free upper-triangle entries in (element, i, k)
    order; the shapes, quadrature points and dof numbering are the
    space's and eps is its mesh spec's, as in assemble."""
    shapes, epsilon = space.shapes, space.mesh.spec.epsilon
    widths = space.mesh.widths
    x = space.points
    a = np.broadcast_to(np.asarray(coeffs.a(x), dtype=float), x.shape)
    b = np.broadcast_to(np.asarray(coeffs.b(x), dtype=float), x.shape)
    h = widths[:, None, None]
    w = shapes.rule.weights
    k1 = np.einsum("eq,iq,kq->eik", a * w, shapes.d1, shapes.d1)
    k0 = np.einsum("eq,iq,kq->eik", b * w, shapes.values, shapes.values)
    k_loc = (epsilon**2 / h**3) * shapes.k2 + (1.0 / h) * k1 + h * k0
    m_loc = h * shapes.m0
    scale = np.ones((len(widths), shapes.p + 1))
    scale[:, 1] = scale[:, 3] = widths
    k_loc *= scale[:, :, None] * scale[:, None, :]
    m_loc *= scale[:, :, None] * scale[:, None, :]

    idx, bw = space.element_dofs, space.bandwidth
    ii, jj = np.broadcast_arrays(idx[:, :, None], idx[:, None, :])
    keep = (ii >= 0) & (ii <= jj)
    flat = bw + ii[keep] - jj[keep] + (bw + 1) * jj[keep]
    shape = (bw + 1, space.n_free)
    return tuple(np.bincount(flat, weights=local[keep],
                             minlength=shape[0] * shape[1]
                             ).reshape(shape, order="F")
                 for local in (k_loc, m_loc))


def per_order_eval(breaks, coeffs, x, deriv=0, piece=None):
    """piecewise_eval as one Horner pass per derivative order, each
    gathering its own coefficient rows."""
    orders = (deriv,) if np.ndim(deriv) == 0 else tuple(deriv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_pieces, n_coef = coeffs.shape[:2]
    if piece is None:
        g = np.searchsorted(breaks, x, side="right") - 1
        np.clip(g, 0, n_pieces - 1, out=g)
        inv_h = np.take(1.0 / np.diff(breaks), g)
        t = (x - np.take(breaks, g)) * inv_h
    else:
        g = np.asarray(piece)
        inv_h = np.take(1.0 / np.diff(breaks), g)
        t = x
    table = coeffs.reshape(n_pieces, n_coef, -1).transpose(1, 2, 0)
    out = np.empty((len(orders), table.shape[1], len(t)))
    row = np.empty(out.shape[1:])
    for block, d in zip(out, orders):
        if d >= n_coef:
            block[:] = 0.0
            continue
        for k in range(n_coef - 1, d - 1, -1):
            gathered = block if k == n_coef - 1 else row
            np.take(table[k], g, axis=1, out=gathered, mode="clip")
            for i in range(d):
                gathered *= k - i
            if gathered is row:
                block *= t
                block += row
        for _ in range(d):
            block *= inv_h
    out = out.transpose(2, 0, 1)
    if coeffs.ndim == 2:
        out = out[:, :, 0]
    return out[:, 0] if np.ndim(deriv) == 0 else out
