"""Assembly of the stiffness and mass matrices for

    B(u, v) = eps^2 (u'', v'') + (a u', v') + (b u, v)

in the C1 Hermite space with clamped ends u(0) = u'(0) = u(1) = u'(1) = 0.

Global dof layout interleaves (value, slope) pairs in node order, with each
element's bubble coefficients appended right after its left node's pair; the
four clamped end dofs are eliminated, not penalized.  Slope dofs hold the
physical derivative du/dx, so the slope shapes are scaled by the element
width h and the matrices stay well-defined on strongly graded meshes.

Both matrices are stored symmetric banded, upper form: band[bw + i - j, j]
holds entry (i, j) for j - bw <= i <= j, the layout scipy's banded Cholesky
and eig_banded expect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import blas as sblas

from .element import ShapeTable, hermite_basis
from .errors import (CoefficientViolation, DimensionMismatch, InvalidSpec,
                     ZeroVector)
from .mesh import Mesh


@dataclass(frozen=True)
class CoefficientSet:
    """Problem coefficients.  a_floor is a certified positive lower bound for
    a(x) on [0, 1], used for validation and for the default layer strength
    beta = sqrt(a_floor).

    allow_degenerate skips the positivity checks so tests can assemble
    isolated terms (a = 0, b = 0, or eps = 0); never set it for real runs.
    """

    a: Callable
    b: Callable
    epsilon: float
    a_floor: float
    allow_degenerate: bool = False

    def __post_init__(self):
        if not self.allow_degenerate:
            if self.epsilon <= 0.0:
                raise InvalidSpec(f"epsilon must be positive, got {self.epsilon}")
            if self.a_floor <= 0.0:
                raise InvalidSpec(f"a_floor must be positive, got {self.a_floor}")
        elif self.epsilon < 0.0:
            raise InvalidSpec(f"epsilon must be non-negative, got {self.epsilon}")


class SymBandMatrix:
    """Symmetric banded matrix, upper storage band[bw + i - j, j] = A[i, j]."""

    def __init__(self, n: int, bandwidth: int):
        if n < 1 or bandwidth < 0:
            raise InvalidSpec(f"bad band matrix shape n={n}, bandwidth={bandwidth}")
        self.n = n
        self.bandwidth = bandwidth
        self.band = np.zeros((bandwidth + 1, n))

    def scatter(self, idx: np.ndarray, local: np.ndarray) -> None:
        """Add dense symmetric local matrices at global indices: idx of shape
        (n_el, m) with local of shape (n_el, m, m), or one element's (m,) and
        (m, m).  Negative indices mark eliminated dofs and are skipped;
        contributions to one entry are summed in element order."""
        idx = np.atleast_2d(idx)
        local = np.reshape(local, (len(idx),) + np.shape(local)[-2:])
        ii, jj = np.broadcast_arrays(idx[:, :, None], idx[:, None, :])
        keep = (ii >= 0) & (ii <= jj)
        flat = (self.bandwidth + ii[keep] - jj[keep]) * self.n + jj[keep]
        self.band += np.bincount(flat, weights=local[keep],
                                 minlength=self.band.size
                                 ).reshape(self.band.shape)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for d in range(self.bandwidth + 1):
            diag = self.band[self.bandwidth - d, d:]
            idx = np.arange(self.n - d)
            out[idx, idx + d] = diag
            out[idx + d, idx] = diag
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"vector shape {x.shape} vs matrix n={self.n}")
        return sblas.dsbmv(self.bandwidth, 1.0, self.band, x)

    def norm_inf(self) -> float:
        """Largest absolute row sum, read off the band: each stored
        off-diagonal entry counts in its own row and its mirror's."""
        absband = np.abs(self.band)
        rows = absband[self.bandwidth].copy()
        for d in range(1, min(self.bandwidth, self.n - 1) + 1):
            diag = absband[self.bandwidth - d, d:]
            rows[:-d] += diag
            rows[d:] += diag
        return float(rows.max())


@dataclass(frozen=True)
class DofMap:
    """Free-dof numbering with the clamped end dofs eliminated."""

    p: int
    n_free: int
    bandwidth: int
    element_dofs: np.ndarray      # (n_elements, p+1), -1 for eliminated dofs
    value_indices: np.ndarray     # free index of each interior node's value dof
    slope_indices: np.ndarray

    def __post_init__(self):
        self.element_dofs.setflags(write=False)
        self.value_indices.setflags(write=False)
        self.slope_indices.setflags(write=False)


def build_dof_map(n_elements: int, p: int) -> DofMap:
    if p < 3:
        raise InvalidSpec(f"element degree must be >= 3, got {p}")
    if n_elements < 1:
        raise InvalidSpec(f"need at least one element, got {n_elements}")
    N = n_elements
    # node i's (value, slope) pair sits at (p-3) + (i-1)(p-1) and element
    # e's bubbles start at e(p-1)
    node = np.arange(N + 1)
    interior = (node > 0) & (node < N)
    node_value = np.where(interior, (p - 3) + (node - 1) * (p - 1), -1)
    node_slope = np.where(interior, node_value + 1, -1)
    e = np.arange(N)
    bubbles = e[:, None] * (p - 1) + np.arange(p - 3)
    element_dofs = np.column_stack([node_value[:-1], node_slope[:-1],
                                    node_value[1:], node_slope[1:], bubbles])
    n_free = 2 * (N - 1) + N * (p - 3)

    # free dofs of element e span [e(p-1) - 2, (e+1)(p-1) - 1], clipped
    lowest = np.maximum(e * (p - 1) - 2, 0)
    highest = np.minimum((e + 1) * (p - 1) - 1, n_free - 1)
    bandwidth = max(int((highest - lowest).max()), 0)
    return DofMap(
        p=p,
        n_free=n_free,
        bandwidth=bandwidth,
        element_dofs=element_dofs,
        value_indices=node_value[1:N].copy(),
        slope_indices=node_slope[1:N].copy(),
    )


def element_matrices(h, shapes: ShapeTable, epsilon: float,
                     a_vals: np.ndarray, b_vals: np.ndarray):
    """Local stiffness and mass matrices of elements of width h, with
    coefficient samples a_vals, b_vals at the mapped quadrature points.

    Widths of shape (n_el,) with samples (n_el, nq) give (n_el, p+1, p+1)
    stacks; a scalar width with samples (nq,) gives one (p+1, p+1) pair.
    """
    single = np.ndim(h) == 0
    h = np.atleast_1d(np.asarray(h, dtype=float))[:, None, None]
    w = shapes.rule.weights
    k2 = (shapes.d2 * w) @ shapes.d2.T
    m0 = (shapes.values * w) @ shapes.values.T
    k1 = np.einsum("eq,iq,kq->eik", np.atleast_2d(a_vals) * w,
                   shapes.d1, shapes.d1)
    k0 = np.einsum("eq,iq,kq->eik", np.atleast_2d(b_vals) * w,
                   shapes.values, shapes.values)

    k_loc = (epsilon**2 / h**3) * k2 + (1.0 / h) * k1 + h * k0
    m_loc = h * m0
    scale = np.ones((len(h), shapes.p + 1))
    scale[:, 1] = scale[:, 3] = h[:, 0, 0]
    k_loc *= scale[:, :, None] * scale[:, None, :]
    m_loc *= scale[:, :, None] * scale[:, None, :]
    if single:
        return k_loc[0], m_loc[0]
    return k_loc, m_loc


def assemble(mesh: Mesh, shapes: ShapeTable, coeffs: CoefficientSet):
    """Assemble (K, M, dofmap) over the mesh.

    Coefficients are sampled at the mapped quadrature points of every
    element; a(x) must stay at or above a_floor and b(x) must be
    non-negative at each sample unless allow_degenerate is set.
    """
    if shapes.p != mesh.spec.p:
        raise InvalidSpec(
            f"shape degree {shapes.p} disagrees with mesh spec degree {mesh.spec.p}"
        )
    nodes, widths = mesh.nodes, mesh.widths
    x = nodes[:-1, None] + widths[:, None] * shapes.rule.points[None, :]
    a_at = np.broadcast_to(np.asarray(coeffs.a(x), dtype=float), x.shape)
    b_at = np.broadcast_to(np.asarray(coeffs.b(x), dtype=float), x.shape)
    for name, vals in (("a", a_at), ("b", b_at)):
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise CoefficientViolation(
                f"{name}(x) = {float(vals[bad][0])} is not finite at "
                f"x = {float(x[bad][0])}"
            )
    if not coeffs.allow_degenerate:
        tol = 1e-12 * max(1.0, abs(coeffs.a_floor))
        if np.any(a_at < coeffs.a_floor - tol):
            worst = float(a_at.min())
            raise CoefficientViolation(
                f"a(x) dips to {worst} below the certified floor {coeffs.a_floor}"
            )
        if np.any(b_at < 0.0):
            raise CoefficientViolation(f"b(x) reaches {float(b_at.min())} < 0")

    k_el, m_el = element_matrices(widths, shapes, coeffs.epsilon, a_at, b_at)
    dofmap = build_dof_map(mesh.n_elements, shapes.p)
    if dofmap.n_free == 0:
        raise InvalidSpec("no free dofs: mesh too small for clamped ends")
    K = SymBandMatrix(dofmap.n_free, dofmap.bandwidth)
    M = SymBandMatrix(dofmap.n_free, dofmap.bandwidth)
    K.scatter(dofmap.element_dofs, k_el)
    M.scatter(dofmap.element_dofs, m_el)
    return K, M, dofmap


def energy_inner_product(K: SymBandMatrix, u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (K.n,) or v.shape != (K.n,):
        raise DimensionMismatch(
            f"vectors {u.shape}, {v.shape} vs matrix n={K.n}"
        )
    return float(u @ K.matvec(v))


def rayleigh_quotient(K: SymBandMatrix, M: SymBandMatrix, u: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    if not np.any(u):
        raise ZeroVector("Rayleigh quotient of the zero vector")
    num = energy_inner_product(K, u, u)
    den = energy_inner_product(M, u, u)
    if den <= 0.0:
        raise ZeroVector(f"u^T M u = {den} is not positive")
    return num / den


@dataclass
class FEFunction:
    """A member of the C1 space, evaluable anywhere with any derivative.

    Holds full (unconstrained) coefficient arrays; clamped end dofs are zero.
    """

    mesh: Mesh
    p: int
    node_values: np.ndarray
    node_slopes: np.ndarray
    bubbles: np.ndarray = field(default=None)  # (n_elements, p-3)

    def __post_init__(self):
        n = self.mesh.n_elements
        if self.bubbles is None:
            self.bubbles = np.zeros((n, self.p - 3))
        if (len(self.node_values) != n + 1 or len(self.node_slopes) != n + 1
                or self.bubbles.shape != (n, self.p - 3)):
            raise DimensionMismatch("coefficient arrays do not match the mesh")

    @classmethod
    def from_dof_vector(cls, mesh: Mesh, dofmap: DofMap,
                        vec: np.ndarray) -> "FEFunction":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (dofmap.n_free,):
            raise DimensionMismatch(
                f"dof vector shape {vec.shape}, expected ({dofmap.n_free},)"
            )
        n = mesh.n_elements
        padded = np.concatenate([vec, [0.0]])   # index -1 reads as 0
        values = np.zeros(n + 1)
        slopes = np.zeros(n + 1)
        values[1:n] = padded[dofmap.value_indices]
        slopes[1:n] = padded[dofmap.slope_indices]
        bubbles = padded[dofmap.element_dofs[:, 4:]] if dofmap.p > 3 \
            else np.zeros((n, 0))
        return cls(mesh=mesh, p=dofmap.p, node_values=values,
                   node_slopes=slopes, bubbles=bubbles)

    def __call__(self, x, deriv=0):
        """Values (deriv=0) or a derivative at the points x.

        deriv may also be a tuple of orders: the points are then located
        once and the result has shape (len(x), len(deriv)), one column per
        order, each equal to the single-order call.  The columns are
        contiguous (Fortran order).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        nodes = self.mesh.nodes
        e = np.clip(np.searchsorted(nodes, x, side="right") - 1,
                    0, self.mesh.n_elements - 1)
        h = self.mesh.widths[e]
        s = (x - nodes[e]) / h
        v0, v1 = self.node_values[e], self.node_values[e + 1]
        hs0, hs1 = h * self.node_slopes[e], h * self.node_slopes[e + 1]
        bubbles = self.bubbles[e]

        def column(d):
            basis = hermite_basis(self.p, s, d)
            out = v0 * basis[0] + hs0 * basis[1] + v1 * basis[2] \
                + hs1 * basis[3]
            for m in range(self.p - 3):
                out += bubbles[:, m] * basis[4 + m]
            return out / h**d

        if np.ndim(deriv) == 0:
            return column(deriv)
        out = np.empty((len(x), len(deriv)), order="F")
        for j, d in enumerate(deriv):
            out[:, j] = column(d)
        return out
