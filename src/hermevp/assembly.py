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
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import blas as sblas

from .element import ShapeTable, _basis_coeffs, piecewise_eval
from .errors import CoefficientViolation, DimensionMismatch, InvalidSpec
from .mesh import Mesh


@dataclass(frozen=True)
class CoefficientSet:
    """Problem coefficients.  a_floor is a positive lower bound for a(x) on
    [0, 1] that assemble checks every quadrature sample of a against.  It
    is measured, not proved: the CLI takes the minimum of a over 4097
    equally spaced points, less 1e-9 relative.  The mesh's layer strength
    beta is a separate input (--beta, default 1.0), not derived from it.
    """

    a: Callable
    b: Callable
    epsilon: float
    a_floor: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise InvalidSpec(f"epsilon must be positive, got {self.epsilon}")
        if self.a_floor <= 0.0:
            raise InvalidSpec(f"a_floor must be positive, got {self.a_floor}")


class SymBandMatrix:
    """Symmetric banded matrix, upper storage band[bw + i - j, j] = A[i, j]."""

    def __init__(self, n: int, bandwidth: int):
        if n < 1 or bandwidth < 0:
            raise InvalidSpec(f"bad band matrix shape n={n}, bandwidth={bandwidth}")
        self.n = n
        self.bandwidth = bandwidth
        # Fortran order is what BLAS and LAPACK take without a copy
        self.band = np.zeros((bandwidth + 1, n), order="F")

    def band_index(self, idx: np.ndarray, pairs: np.ndarray):
        """Where scatter puts the local entries at pairs, of shape (2, m):
        the (row, column) of each entry in the local dof order of elements
        with global dofs idx, of shape (n_el, p+1).  Gives the mask of the
        kept entries (both dofs free, row <= column globally) and their
        flat positions in band.  Matrices of one shape share it."""
        ii, jj = idx[:, pairs[0]], idx[:, pairs[1]]
        keep = (ii >= 0) & (ii <= jj)
        jj = jj[keep]
        return keep, self.bandwidth + ii[keep] - jj + (self.bandwidth + 1) * jj

    def scatter(self, index, local: np.ndarray) -> None:
        """Add the local entries, of shape (n_el, m), at index =
        band_index(idx, pairs).  Entries of eliminated dofs and of the
        lower triangle are skipped; contributions to one entry are summed
        in (element, pair) order."""
        keep, flat = index
        self.band += np.bincount(flat, weights=local[keep],
                                 minlength=self.band.size
                                 ).reshape(self.band.shape, order="F")

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
    pairs: np.ndarray             # (2, (p+1)(p+2)/2) local (row, column)

    def __post_init__(self):
        for arr in (self.element_dofs, self.value_indices,
                    self.slope_indices, self.pairs):
            arr.setflags(write=False)


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
        pairs=_kept_pairs(p),
    )


@lru_cache(maxsize=32)
def _kept_pairs(p: int) -> np.ndarray:
    """The local (row, column) pairs the band keeps, shape (2, m): an
    element's local dofs sit at these offsets from e(p-1), so its entries
    in the band's upper triangle are (i, j) with offset[i] <= offset[j].
    They run row-major, the order of the (p+1)^2 local entries."""
    offset = np.concatenate([[-2, -1, p - 3, p - 2], np.arange(p - 3)])
    return np.array(np.nonzero(offset[:, None] <= offset))


def element_matrices(h, shapes: ShapeTable, epsilon: float,
                     a_vals: np.ndarray, b_vals: np.ndarray,
                     pairs: np.ndarray):
    """Local stiffness and mass entries of elements of widths h, shape
    (n_el,), with coefficient samples a_vals, b_vals of shape (n_el, nq)
    at the mapped quadrature points: two (n_el, m) arrays, one column per
    local (row, column) pair of pairs, of shape (2, m).  Assembly passes
    the band's kept triangle, DofMap.pairs; every pair of the (p+1)^2
    gives the full local matrices.  Each entry is the same product of the
    same factors whichever pairs are asked for.  One element is a batch
    of one.
    """
    i, j = pairs
    h = np.asarray(h, dtype=float)[:, None]
    w = shapes.rule.weights
    k1 = np.einsum("eq,pq,pq->ep", a_vals * w, shapes.d1[i], shapes.d1[j])
    k0 = np.einsum("eq,pq,pq->ep", b_vals * w, shapes.values[i],
                   shapes.values[j])

    k_loc = (epsilon**2 / h**3) * shapes.k2[i, j] + (1.0 / h) * k1 + h * k0
    m_loc = h * shapes.m0[i, j]
    scale = np.ones((len(h), shapes.p + 1))
    scale[:, 1] = scale[:, 3] = h[:, 0]
    scale = scale[:, i] * scale[:, j]
    k_loc *= scale
    m_loc *= scale
    return k_loc, m_loc


def assemble(mesh: Mesh, shapes: ShapeTable, coeffs: CoefficientSet):
    """Assemble (K, M, dofmap) over the mesh.

    Coefficients are sampled at the mapped quadrature points of every
    element; a(x) must stay at or above a_floor and b(x) must be
    non-negative at each sample.
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
    tol = 1e-12 * max(1.0, coeffs.a_floor)
    if np.any(a_at < coeffs.a_floor - tol):
        worst = float(a_at.min())
        raise CoefficientViolation(
            f"a(x) dips to {worst} below a_floor = {coeffs.a_floor}"
        )
    if np.any(b_at < 0.0):
        raise CoefficientViolation(f"b(x) reaches {float(b_at.min())} < 0")

    dofmap = build_dof_map(mesh.n_elements, shapes.p)
    if dofmap.n_free == 0:
        raise InvalidSpec("no free dofs: mesh too small for clamped ends")
    K = SymBandMatrix(dofmap.n_free, dofmap.bandwidth)
    M = SymBandMatrix(dofmap.n_free, dofmap.bandwidth)
    index = K.band_index(dofmap.element_dofs, dofmap.pairs)  # M's as well
    # finite samples can still overflow the products; refused below
    with np.errstate(over="ignore", invalid="ignore"):
        k_el, m_el = element_matrices(widths, shapes, coeffs.epsilon, a_at,
                                      b_at, dofmap.pairs)
        K.scatter(index, k_el)
        M.scatter(index, m_el)
    for name, A in (("stiffness matrix K", K), ("mass matrix M", M)):
        if not np.isfinite(A.band).all():
            raise CoefficientViolation(
                f"the {name} overflows: an entry is not finite, so the "
                f"coefficients are too large for double precision"
            )
    return K, M, dofmap


def _owned(arr) -> np.ndarray:
    """arr as a float array to be made read-only: one that owns its data
    is taken over, as Mesh takes its nodes; a view or any other input is
    copied."""
    arr = np.asarray(arr, dtype=float)
    return arr if arr.flags.owndata else arr.copy()


@dataclass(frozen=True)
class FEFunction:
    """A member of the C1 space, evaluable anywhere with any derivative.

    Holds full (unconstrained) coefficient arrays; clamped end dofs are zero.
    A trailing mode axis on every array, node_values of shape
    (n_elements + 1, modes), holds several functions on one mesh, and
    evaluating them gives the same trailing axis.  The arrays are made
    read-only, each taken over when it owns its data and copied
    otherwise, since the per-element power coefficients every call reads
    are built once, when the function is made.
    """

    mesh: Mesh
    p: int
    node_values: np.ndarray
    node_slopes: np.ndarray
    bubbles: np.ndarray = field(default=None)  # (n_elements, p-3[, modes])
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = self.mesh.widths
        n = len(h)
        values = _owned(self.node_values)
        slopes = _owned(self.node_slopes)
        modes = values.shape[1:]
        bubbles = np.zeros((n, self.p - 3) + modes) if self.bubbles is None \
            else _owned(self.bubbles)
        if (values.shape != (n + 1,) + modes
                or slopes.shape != (n + 1,) + modes
                or bubbles.shape != (n, self.p - 3) + modes):
            raise DimensionMismatch("coefficient arrays do not match the mesh")
        v = values.reshape(n + 1, -1).T                     # (mode, node)
        s = slopes.reshape(n + 1, -1).T
        b = bubbles.reshape(n, self.p - 3, len(v)).transpose(2, 0, 1)
        # a C-ordered (mode, element, coefficient) table, so each mode's
        # product is the same BLAS call as a single function's
        table = np.concatenate([np.stack([v[:, :-1], h * s[:, :-1], v[:, 1:],
                                          h * s[:, 1:]], axis=2), b],
                               axis=2) @ _basis_coeffs(self.p)
        table = np.moveaxis(table, 0, 2) if modes else table[0]
        for name, arr in (("node_values", values), ("node_slopes", slopes),
                          ("bubbles", bubbles), ("_table", table)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_dof_vector(cls, mesh: Mesh, dofmap: DofMap,
                        vec: np.ndarray) -> "FEFunction":
        """The function with free dofs vec, of shape (n_free,), or of
        shape (n_free, modes) for one function per column."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape[:1] != (dofmap.n_free,) or vec.ndim > 2:
            raise DimensionMismatch(
                f"dof vector shape {vec.shape}, expected ({dofmap.n_free},) "
                f"or ({dofmap.n_free}, modes)"
            )
        n = mesh.n_elements
        modes = vec.shape[1:]
        padded = np.concatenate([vec, np.zeros((1,) + modes)])  # -1 reads 0
        values = np.zeros((n + 1,) + modes)
        slopes = np.zeros((n + 1,) + modes)
        values[1:n] = padded[dofmap.value_indices]
        slopes[1:n] = padded[dofmap.slope_indices]
        bubbles = padded[dofmap.element_dofs[:, 4:]] if dofmap.p > 3 \
            else np.zeros((n, 0) + modes)
        return cls(mesh=mesh, p=dofmap.p, node_values=values,
                   node_slopes=slopes, bubbles=bubbles)

    def __call__(self, x, deriv=0, element=None):
        """Values (deriv=0) or a derivative at the points x.

        deriv may also be a tuple of orders: the points are then located
        once and the result has shape (len(x), len(deriv)), one column per
        order, each equal to the single-order call.  A function with a
        mode axis adds it last, giving (point, order, mode), each mode
        equal bit for bit to a single-mode function's call.  Every
        (order, mode) column is contiguous.  With element given, x holds
        local coordinates in [0, 1] on those elements.  At the last node
        the value and slope are the stored end data exactly, not a rounded
        sum of the last element's coefficients at t = 1; other nodes sit
        at t = 0.
        """
        out = piecewise_eval(self.mesh.nodes, self._table, x, deriv,
                             piece=element)
        if element is None:
            at_end = np.atleast_1d(x) == self.mesh.nodes[-1]
            ends = {0: self.node_values[-1], 1: self.node_slopes[-1]}
            columns = out if np.ndim(deriv) else out[:, None]   # views
            for j, d in enumerate(np.atleast_1d(deriv)):
                if d in ends:
                    columns[at_end, j] = ends[d]
        return out
