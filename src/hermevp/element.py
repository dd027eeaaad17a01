"""Reference-element machinery: C1 shape functions, quadrature, the
piecewise Hermite interpolant and the one piecewise-polynomial evaluator.

The basis on the reference element [0, 1] has p+1 functions in local order
(value left, slope left, value right, slope right, bubbles):

    H00 = 1 - 3 s^2 + 2 s^3        H01 = 3 s^2 - 2 s^3
    H10 = s (1 - s)^2              H11 = s^2 (s - 1)
    B_m = s^2 (1-s)^2 P_m(2s - 1)  for m = 0..p-4  (shifted Legendre)

The bubbles and their first derivatives vanish at both endpoints, so gluing
elements through the shared (value, slope) pairs gives a C1 space of local
degree p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

from .errors import BadGrouping, DegreeTooLow, DimensionMismatch, InvalidSpec


@dataclass(frozen=True)
class QuadRule:
    """Gauss-Legendre points and weights mapped to [0, 1]."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_points(self) -> int:
        return len(self.points)


@lru_cache(maxsize=32)
def gauss_rule(n: int) -> QuadRule:
    """The n-point rule; cached, since QuadRule and its arrays are
    read-only and every caller can share one."""
    if n < 1:
        raise InvalidSpec(f"quadrature rule needs at least one point, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadRule(points=0.5 * (x + 1.0), weights=0.5 * w)


@lru_cache(maxsize=32)
def _basis_coeffs(p: int) -> np.ndarray:
    """Power-basis coefficients (p+1, p+1) of the reference shapes, low order
    first, one row per shape function."""
    if p < 3:
        raise DegreeTooLow(f"C1 Hermite elements need degree >= 3, got {p}")
    rows = [
        [1.0, 0.0, -3.0, 2.0],   # H00
        [0.0, 1.0, -2.0, 1.0],   # H10
        [0.0, 0.0, 3.0, -2.0],   # H01
        [0.0, 0.0, -1.0, 1.0],   # H11
    ]
    weight = np.array([0.0, 0.0, 1.0, -2.0, 1.0])  # s^2 (1-s)^2
    for m in range(p - 3):
        leg = npleg.Legendre.basis(m, domain=[0.0, 1.0])
        pm = leg.convert(kind=nppoly.Polynomial).coef
        rows.append(nppoly.polymul(weight, pm))
    out = np.zeros((p + 1, p + 1))
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    out.setflags(write=False)
    return out


def hermite_basis(p: int, s, deriv: int = 0) -> np.ndarray:
    """Evaluate all p+1 reference shapes (or a derivative) at points s.

    Returns a C-contiguous array of shape (p+1, len(s)), the layout the
    GEMMs of ShapeTable read.  Derivatives are taken on the reference
    element; mapping to an element of width h divides by h^deriv and
    scales the slope shapes by h, which is assembly's business.  The
    shapes are the p+1 modes of one piecewise_eval piece on [0, 1], so t
    is s, 1/h is 1 and the (point, mode) result transposes to (shape,
    point) without a copy.
    """
    return piecewise_eval(np.array([0.0, 1.0]), _basis_coeffs(p).T[None],
                          s, deriv).T


@dataclass(frozen=True)
class ShapeTable:
    """Shapes and their first two reference derivatives at quadrature
    points, with the coefficient-free element integrals they give:
    k2[i, j] = sum_q w_q d2[i, q] d2[j, q] and m0 the same over values.
    Every array is read-only, since the tables are shared."""

    p: int
    rule: QuadRule
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    k2: np.ndarray = field(init=False)
    m0: np.ndarray = field(init=False)

    def __post_init__(self):
        w = self.rule.weights
        object.__setattr__(self, "k2", (self.d2 * w) @ self.d2.T)
        object.__setattr__(self, "m0", (self.values * w) @ self.values.T)
        for arr in (self.values, self.d1, self.d2, self.k2, self.m0):
            arr.setflags(write=False)


@lru_cache(maxsize=32)
def shape_table(p: int) -> ShapeTable:
    """Tabulate the degree-p basis at 2p Gauss points, enough for products
    of basis second-derivatives times smooth data.  The table depends on
    p alone, so one read-only table per p is shared."""
    rule = gauss_rule(2 * p)
    return ShapeTable(
        p=p,
        rule=rule,
        values=hermite_basis(p, rule.points, 0),
        d1=hermite_basis(p, rule.points, 1),
        d2=hermite_basis(p, rule.points, 2),
    )


@dataclass(frozen=True)
class HermiteData:
    """Point data (values and slopes) to be interpolated."""

    nodes: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        slopes = np.asarray(self.slopes, dtype=float)
        if not (len(nodes) == len(values) == len(slopes)):
            raise DimensionMismatch(
                f"nodes/values/slopes lengths differ: "
                f"{len(nodes)}/{len(values)}/{len(slopes)}"
            )
        if len(nodes) < 2:
            raise InvalidSpec("interpolation needs at least two nodes")
        if np.any(np.diff(nodes) <= 0.0):
            raise InvalidSpec("interpolation nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "slopes", slopes)


def piecewise_eval(breaks: np.ndarray, coeffs: np.ndarray, x, deriv=0,
                   piece=None):
    """Evaluate a piecewise polynomial or its derivatives at the points x.

    Row i of coeffs holds the power-basis coefficients, lowest order first,
    of the piece on [breaks[i], breaks[i+1]] in the local coordinate t in
    [0, 1]; points outside use the end pieces.  With piece given, x holds
    local coordinates on those pieces and nothing is located, so t keeps
    full precision on pieces narrower than the spacing of doubles near them.
    One pass walks the coefficient rows from the top down to the lowest
    order asked for, gathering each row once per point.  Every order d
    takes its Horner step from that row, scaled in place by k, k-1, ...
    as the orders rise, so the t^k row carries d's falling factorial
    k (k-1) ... (k-d+1); each order's sum is then multiplied by 1/h d
    times.  That is the multiplication sequence of a Horner pass per
    order, so every column is the same.  An int deriv gives a 1-D array;
    a tuple gives shape (len(x), len(deriv)), each column equal bit for
    bit to the single-order call.  Orders above the degree give zeros.

    coeffs of shape (pieces, coefficients, modes) hold several functions
    on the same breaks, and the result gains a trailing mode axis, each
    mode equal bit for bit to its own single-mode call.  Every Horner step
    gathers all modes at once from a (coefficient, mode, piece) view of
    coeffs into one (mode, point) row, with t and 1/h broadcast over the
    modes.  Each (order, mode) column of the (point, order, mode) result
    is contiguous.
    """
    orders = (deriv,) if np.ndim(deriv) == 0 else tuple(deriv)
    if any(d < 0 for d in orders):
        raise InvalidSpec(f"derivative order must be >= 0, got {deriv}")
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
    live = []                                # (order, its block), rising
    for d, j in sorted((d, j) for j, d in enumerate(orders)):
        if d < n_coef:
            live.append((d, out[j]))
        else:
            out[j] = 0.0
    lowest = live[0][0] if live else n_coef
    for k in range(n_coef - 1, lowest - 1, -1):
        np.take(table[k], g, axis=1, out=row, mode="clip")
        scaled = 0
        for d, block in live:
            if d > k:
                break
            for i in range(scaled, d):  # k (k-1) ... (k-d+1) on the t^k row
                row *= k - i
            scaled = d
            if k == n_coef - 1:
                block[:] = row
            else:
                block *= t
                block += row
    for d, block in live:
        for _ in range(d):
            block *= inv_h
    out = out.transpose(2, 0, 1)             # a view: (point, order, mode)
    if coeffs.ndim == 2:
        out = out[:, :, 0]
    return out[:, 0] if np.ndim(deriv) == 0 else out


class PiecewiseFunction:
    """Piecewise polynomial over groups of intervals, evaluable with any
    derivative order; stores power-basis coefficients per group on the
    group-local coordinate t in [0, 1] and evaluates through
    piecewise_eval."""

    def __init__(self, breaks: np.ndarray, coeffs: np.ndarray):
        self.breaks = np.asarray(breaks, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if len(self.breaks) != len(self.coeffs) + 1:
            raise DimensionMismatch("breaks and coefficient rows do not line up")
        self.breaks.setflags(write=False)
        self.coeffs.setflags(write=False)

    def __call__(self, x, deriv=0):
        """Values (deriv=0) or a derivative at the points x; a tuple of
        orders locates the points once and gives one column per order."""
        return piecewise_eval(self.breaks, self.coeffs, x, deriv)


def hermite_interpolant(data: HermiteData, n: int = 1) -> PiecewiseFunction:
    """Piecewise Hermite interpolant with groups of n consecutive intervals.

    Each group of n intervals carries one polynomial of degree 2n+1 matching
    values and slopes at its n+1 nodes, so the global function is C1.  The
    number of intervals must be divisible by n.  For local node i, with
    Lagrange factor l_i and d_i = l_i'(t_i), the value and slope shapes are
    h0 = (1 - 2 d_i (t - t_i)) l_i^2 and h1 = (t - t_i) l_i^2.

    Every group and node is built at once, on arrays indexed (group, node,
    coefficient), coefficients lowest order first; only the factors and
    the terms of a product are looped over.  Each coefficient of l_i^2
    sums its products with plain multiply-adds in np.convolve's order.
    """
    if n < 1:
        raise InvalidSpec(f"group size must be >= 1, got {n}")
    n_int = len(data.nodes) - 1
    if n_int % n != 0:
        raise BadGrouping(f"{n_int} intervals cannot be grouped in runs of {n}")

    idx = np.arange(0, n_int, n)[:, None] + np.arange(n + 1)
    xa = data.nodes[idx[:, :1]]
    L = data.nodes[idx[:, -1:]] - xa
    t = (data.nodes[idx] - xa) / L
    node = np.arange(n + 1)
    li = np.zeros(t.shape + (n + 1,))
    li[..., 0] = 1.0
    dsum = 0.0
    for j in range(n):
        # factor j of l_i is (t - t_k) / (t_i - t_k) for the j-th k != i:
        # shift l_i up one order and subtract t_k l_i
        tk = t[:, j + (node <= j)]
        diff = t - tk
        shifted = np.zeros_like(li)
        shifted[..., 1:] = li[..., :-1]
        li = (shifted - tk[..., None] * li) / diff[..., None]
        dsum = dsum + 1.0 / diff
    # l_i^2 as a sum of shifted products
    li2 = np.zeros(t.shape + (2 * n + 1,))
    for k in range(n + 1):
        li2[..., k:k + n + 1] += li[..., k:k + 1] * li
    # h0 and h1: l_i^2 times the two-term factors (c0 + c1 t) and (t - t_i)
    c1 = -2.0 * dsum
    c0 = 1.0 + c1 * -t
    h0 = np.zeros(t.shape + (2 * n + 2,))
    h0[..., :-1] = c0[..., None] * li2
    h0[..., 1:] += c1[..., None] * li2
    h1 = np.zeros(t.shape + (2 * n + 2,))
    h1[..., :-1] = -t[..., None] * li2
    h1[..., 1:] += li2
    values, slopes = data.values[idx], L * data.slopes[idx]
    coeffs = np.zeros((len(idx), 2 * n + 2))
    for i in range(n + 1):
        coeffs += values[:, i:i + 1] * h0[:, i]
        coeffs += slopes[:, i:i + 1] * h1[:, i]
    return PiecewiseFunction(data.nodes[::n].copy(), coeffs)


def eval_layer_function(x, epsilon: float, beta: float, deriv: int = 0):
    """Layer function e^{-beta x/eps} and its exact derivatives; a tuple of
    orders gives one column per order from one exponential."""
    if epsilon <= 0.0 or beta <= 0.0:
        raise InvalidSpec("epsilon and beta must be positive")
    rate = beta / epsilon
    e = np.exp(-rate * np.asarray(x, dtype=float))
    if np.ndim(deriv) == 0:
        return (-rate)**deriv * e
    return np.stack([(-rate)**d * e for d in deriv], axis=-1)
