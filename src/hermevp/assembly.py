"""Assembly of the stiffness and mass matrices for

    B(u, v) = eps^2 (u'', v'') + (a u', v') + (b u, v)

in the C1 Hermite space with clamped ends u(0) = u'(0) = u(1) = u'(1) = 0.
One Space(mesh, degree) is that space: it owns the dof layout, the shape
table and the mapped quadrature points, and assemble, FEFunction and the
analysis pipeline read them from it.

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

from .element import (ShapeTable, _basis_coeffs, piecewise_eval,
                      shape_table)
from .errors import CoefficientViolation, DimensionMismatch, InvalidSpec
from .mesh import Mesh


@dataclass(frozen=True)
class CoefficientSet:
    """Problem coefficients a and b, vectorized callables of x, checked
    when the set is made by sampling both at PROBE_POINTS equally spaced
    points of [0, 1].  a_floor, the least a there less 1e-9 relative, is
    derived from that probe: measured, not proved.  The mesh's layer
    strength beta is a separate input, not derived from a."""

    a: Callable
    b: Callable
    a_floor: float = field(init=False)
    PROBE_POINTS = 4097         # a class constant, not a field

    def __post_init__(self):
        # the probe samples against a floor of 0, so it refuses a <= 0
        object.__setattr__(self, "a_floor", 0.0)
        a_at, _ = self.sample(np.linspace(0.0, 1.0, self.PROBE_POINTS))
        object.__setattr__(self, "a_floor", float(a_at.min()) * (1.0 - 1e-9))

    def sample(self, x: np.ndarray):
        """a and b at the points x, each of x's shape.  An evaluation that
        raises is refused as InvalidSpec; a value that is not finite, an a
        at or below a_floor less 1e-12 relative or a b < 0 as
        CoefficientViolation."""
        a_name, b_name = (getattr(f, "__name__", f) for f in (self.a, self.b))
        try:    # NaN and inf are refused below, not warned about
            with np.errstate(all="ignore"):
                a_at, b_at = (np.broadcast_to(np.asarray(f(x), dtype=float),
                                              x.shape)
                              for f in (self.a, self.b))
        except Exception as exc:    # whatever it is, the spec is at fault
            raise InvalidSpec(f"cannot evaluate a(x) = {a_name!r} and b(x) = "
                              f"{b_name!r} on [0, 1]: {exc!r}") from exc
        for name, vals in ((f"a(x) = {a_name!r}", a_at),
                           (f"b(x) = {b_name!r}", b_at)):
            bad = ~np.isfinite(vals)
            if np.any(bad):
                raise CoefficientViolation(
                    f"{name} is {float(vals[bad][0])} at x = "
                    f"{float(x[bad][0])}, not finite")
        lowest = self.a_floor * (1.0 - 1e-12)
        if not a_at.min() > lowest:
            raise CoefficientViolation(f"a(x) = {a_name!r} reaches "
                                       f"{float(a_at.min())} on [0, 1], "
                                       f"need a > {lowest!r}")
        if np.any(b_at < 0.0):
            raise CoefficientViolation(f"b(x) = {b_name!r} reaches "
                                       f"{float(b_at.min())} < 0")
        return a_at, b_at


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
class Space:
    """The C1 Hermite space of degree p >= 3 on mesh, clamped end dofs
    eliminated.  The rest is derived when it is made, every array
    read-only: n_free and the band's bandwidth; element_dofs, shape
    (n_elements, p+1), with -1 at an eliminated dof; pairs, shape (2, m),
    the local (row, column) pairs the band keeps, row-major; shapes, the
    shared shape_table(degree); and points, shape (n_elements, n_gauss),
    the quadrature points mapped to each element."""

    mesh: Mesh
    degree: int
    n_free: int = field(init=False)
    bandwidth: int = field(init=False)
    element_dofs: np.ndarray = field(init=False, repr=False)
    pairs: np.ndarray = field(init=False, repr=False)
    shapes: ShapeTable = field(init=False, repr=False)
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p, N = self.degree, self.mesh.n_elements
        shapes = shape_table(p)                 # refuses p < 3
        # element e's local dofs (left pair, right pair, bubbles) sit at
        # these offsets from e(p-1); the clamped end pairs fall outside
        # [0, n_free), and the band keeps (i, j) with offset[i] <= offset[j]
        offset = np.concatenate([[-2, -1, p - 3, p - 2], np.arange(p - 3)])
        n_free = N * (p - 1) - 2
        dofs = (p - 1) * np.arange(N)[:, None] + offset
        # free dofs of element e span [e(p-1) - 2, (e+1)(p-1) - 1], clipped
        lowest = np.maximum(dofs[:, 0], 0)
        highest = np.minimum(dofs[:, 3], n_free - 1)
        points = (self.mesh.nodes[:-1, None] + self.mesh.widths[:, None]
                  * shapes.rule.points[None, :])
        for name, value in (
                ("n_free", n_free),
                ("bandwidth", max(int((highest - lowest).max()), 0)),
                ("element_dofs",
                 np.where((dofs >= 0) & (dofs < n_free), dofs, -1)),
                ("pairs", np.array(np.nonzero(offset[:, None] <= offset))),
                ("shapes", shapes), ("points", points)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)


def element_matrices(h, shapes: ShapeTable, epsilon: float,
                     a_vals: np.ndarray, b_vals: np.ndarray,
                     pairs: np.ndarray):
    """Local stiffness and mass entries of elements of widths h, shape
    (n_el,), with coefficient samples a_vals, b_vals of shape (n_el, nq)
    at the mapped quadrature points: two (n_el, m) arrays, one column per
    local (row, column) pair of pairs, of shape (2, m).  Assembly passes
    the band's kept triangle, Space.pairs; every pair of the (p+1)^2
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


def assemble(space: Space, coeffs: CoefficientSet):
    """Assemble (K, M) over the space, with the eps of the eps^2 term read
    from its mesh's spec.

    Coefficients are sampled at space.points through coeffs.sample, which
    holds them to its rules.
    """
    a_at, b_at = coeffs.sample(space.points)
    if space.n_free == 0:
        raise InvalidSpec("no free dofs: mesh too small for clamped ends")
    K = SymBandMatrix(space.n_free, space.bandwidth)
    M = SymBandMatrix(space.n_free, space.bandwidth)
    index = K.band_index(space.element_dofs, space.pairs)   # M's as well
    # finite samples can still overflow the products; refused below
    with np.errstate(over="ignore", invalid="ignore"):
        k_el, m_el = element_matrices(space.mesh.widths, space.shapes,
                                      space.mesh.spec.epsilon, a_at, b_at,
                                      space.pairs)
        K.scatter(index, k_el)
        M.scatter(index, m_el)
    for name, A in (("stiffness matrix K", K), ("mass matrix M", M)):
        if not np.isfinite(A.band).all():
            raise CoefficientViolation(
                f"the {name} overflows: an entry is not finite, so the "
                f"coefficients are too large for double precision"
            )
    return K, M


def _owned(arr) -> np.ndarray:
    """arr as a float array to be made read-only: one that owns its data
    is taken over, as Mesh takes its nodes; a view or any other input is
    copied."""
    arr = np.asarray(arr, dtype=float)
    return arr if arr.flags.owndata else arr.copy()


@dataclass(frozen=True)
class FEFunction:
    """A member of the C1 space, evaluable anywhere with any derivative.

    Holds full (unconstrained) coefficient arrays; clamped end dofs are
    zero.  The degree p is 3 plus the bubbles per element (none: cubic).
    A trailing mode axis on every array, node_values of shape
    (n_elements + 1, modes), holds several functions on one mesh, and
    evaluating them gives the same trailing axis.  The arrays are made
    read-only, each taken over when it owns its data and copied
    otherwise, since the per-element power coefficients every call reads
    are built once, when the function is made.
    """

    mesh: Mesh
    node_values: np.ndarray
    node_slopes: np.ndarray
    bubbles: np.ndarray = field(default=None)  # (n_elements, p-3[, modes])
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def p(self) -> int:
        return 3 + self.bubbles.shape[1]

    def __post_init__(self):
        h = self.mesh.widths
        n = len(h)
        values = _owned(self.node_values)
        slopes = _owned(self.node_slopes)
        modes = values.shape[1:]
        bubbles = np.zeros((n, 0) + modes) if self.bubbles is None \
            else _owned(self.bubbles)
        if (values.shape != (n + 1,) + modes
                or slopes.shape != (n + 1,) + modes or bubbles.ndim < 2
                or bubbles.shape[:1] + bubbles.shape[2:] != (n,) + modes):
            raise DimensionMismatch("coefficient arrays do not match the mesh")
        p = 3 + bubbles.shape[1]
        v = values.reshape(n + 1, -1).T                     # (mode, node)
        s = slopes.reshape(n + 1, -1).T
        b = bubbles.reshape(n, p - 3, len(v)).transpose(2, 0, 1)
        # a C-ordered (mode, element, coefficient) table, so each mode's
        # product is the same BLAS call as a single function's
        table = np.concatenate([np.stack([v[:, :-1], h * s[:, :-1], v[:, 1:],
                                          h * s[:, 1:]], axis=2), b],
                               axis=2) @ _basis_coeffs(p)
        table = np.moveaxis(table, 0, 2) if modes else table[0]
        for name, arr in (("node_values", values), ("node_slopes", slopes),
                          ("bubbles", bubbles), ("_table", table)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_dof_vector(cls, space: Space, vec: np.ndarray) -> "FEFunction":
        """The function of space with free dofs vec, of shape (n_free,),
        or of shape (n_free, modes) for one function per column."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape[:1] != (space.n_free,) or vec.ndim > 2:
            raise DimensionMismatch(
                f"dof vector shape {vec.shape}, expected ({space.n_free},) "
                f"or ({space.n_free}, modes)"
            )
        pad = np.concatenate([vec, np.zeros((1,) + vec.shape[1:])])
        dofs = space.element_dofs           # -1, a clamped dof, reads 0
        # each node's (value, slope) dofs: element i's left pair for node
        # i, the last element's right pair for the last node
        nodes = np.concatenate([dofs[:, :2], dofs[-1:, 2:4]])
        return cls(mesh=space.mesh, node_values=pad[nodes[:, 0]],
                   node_slopes=pad[nodes[:, 1]], bubbles=pad[dofs[:, 4:]])

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
