"""Layer-adapted 1D meshes on [0, 1].

Every mesh has one layout: a left layer of nodes 0 = x_0 < ... < x_L,
equal-width middle elements from x_L to 1 - x_L, and a right layer that
mirrors the left, x_{N-j} = 1 - x_j.  Mesh.n_layer = L counts the elements
in each layer.  The three families differ only in their layer map, L and
the formula for their middle nodes:

    exp       x_j = (eps/beta)(p+1) phi(j/N) with the grading function
              phi(t) = -ln(1 - 4 C t), C = 1 - exp(-beta/((p+1) eps));
              L = N/4 - 1 and N/2 + 2 middle elements, from np.linspace
    shishkin  x_j = 4 tau j/N with tau = min(1/4, (p+1)(eps/beta) ln N);
              L = N/4 and N/2 middle elements tau + (1 - 2 tau) i/(N/2)
    uniform   L = 0 and N middle elements, from np.linspace

Every node comes from the closed-form expression for its index (no
cumulative sums), so the mirror symmetry x_j + x_{N-j} = 1 is exact to
rounding.  The two middle formulas are kept apart because either one
applied to the other family moves its nodes by a few ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InvalidSpec, RegionOverlap, WrongMeshKind


class MeshKind(str, Enum):
    EXP = "exp"
    SHISHKIN = "shishkin"
    UNIFORM = "uniform"


class Region(str, Enum):
    LEFT_LAYER = "left_layer"
    INTERIOR = "interior"
    RIGHT_LAYER = "right_layer"


@dataclass(frozen=True)
class MeshSpec:
    """Parameters that determine a mesh.

    epsilon: singular perturbation parameter, 0 < epsilon <= 1
    beta: layer-strength constant, usually sqrt(min a); beta > 0
    p: the grading degree (>= 3), the p of the layer scale (p+1) eps/beta,
       and the degree of the Space that solve puts on the mesh
    n_elements: element count N; for exp/shishkin N > 4 and divisible by 4
    kind: mesh family
    """

    epsilon: float
    beta: float
    p: int
    n_elements: int
    kind: MeshKind

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise InvalidSpec(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not 0.0 < self.beta < math.inf:
            raise InvalidSpec(
                f"beta must be positive and finite, got {self.beta}")
        if int(self.p) != self.p or self.p < 3:
            raise InvalidSpec(f"element degree must be an integer >= 3, got {self.p}")
        if int(self.n_elements) != self.n_elements or self.n_elements < 1:
            raise InvalidSpec(f"n_elements must be a positive integer, got {self.n_elements}")
        # equal specs share one cached mesh, whose spec must not tell them
        # apart: p = 3.0 is stored as 3
        for name, cast in (("p", int), ("n_elements", int),
                           ("kind", MeshKind)):
            object.__setattr__(self, name, cast(getattr(self, name)))
        if self.kind in (MeshKind.EXP, MeshKind.SHISHKIN):
            if self.n_elements <= 4 or self.n_elements % 4 != 0:
                raise InvalidSpec(
                    f"{self.kind.value} meshes need n_elements > 4 and "
                    f"divisible by 4, got {self.n_elements}"
                )

    @property
    def layer_scale(self) -> float:
        """(eps/beta)(p+1), the length scale of the graded layers."""
        return (self.epsilon / self.beta) * (self.p + 1)


@dataclass(frozen=True)
class Mesh:
    """Nodes, widths and the layer element count; immutable after build.

    n_layer elements lie in each boundary layer (0 on a uniform mesh), and
    the N - 2 n_layer elements between the layers are interior.
    """

    spec: MeshSpec
    nodes: np.ndarray
    widths: np.ndarray
    n_layer: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.widths.setflags(write=False)

    @property
    def n_elements(self) -> int:
        return len(self.widths)

    @property
    def regions(self) -> tuple[Region, ...]:
        """The region of each element, left to right."""
        n = self.n_layer
        return ((Region.LEFT_LAYER,) * n
                + (Region.INTERIOR,) * (self.n_elements - 2 * n)
                + (Region.RIGHT_LAYER,) * n)

    def transition_left(self) -> float:
        """Last left-layer node x_{n_layer}: x_{N/4-1} (exp) or tau (shishkin)."""
        if self.n_layer == 0:
            raise WrongMeshKind("uniform meshes have no transition point")
        return float(self.nodes[self.n_layer])


def _scale_text(spec: MeshSpec) -> str:
    """The layer scale with both of its parameters, for refusals: the
    layer width follows (p+1) epsilon/beta, so either can be out of range."""
    return (f"the layer scale (p+1) epsilon/beta = {spec.layer_scale:.3g} "
            f"(epsilon = {spec.epsilon:g}, beta = {spec.beta:g})")


def _epsilon_floor(spec: MeshSpec) -> float:
    """The smallest epsilon, rounded up to three digits, that keeps the
    right-layer nodes 1 - x_j apart.  Doubles in [1/2, 1) are
    np.spacing(1.0)/2 apart and the layer's gaps grow inward from x_1, so
    an x_1 of one spacing keeps every node and one of half a spacing rounds
    1 - x_1 to 1: the true floor lies within 2x below.  That thin, x_1 is
    linear in epsilon: layer_scale * -ln(1 - 4/N) on an exp mesh (C = 1),
    layer_scale * 4 ln(N)/N on a Shishkin mesh."""
    N = spec.n_elements
    x1 = (4.0 * math.log(N) / N if spec.kind is MeshKind.SHISHKIN
          else -math.log1p(-4.0 / N))
    floor = np.spacing(1.0) / 2.0 * spec.beta / ((spec.p + 1) * x1)
    unit = 10.0 ** (math.floor(math.log10(floor)) - 2)
    return math.ceil(floor / unit) * unit


def _layout(spec: MeshSpec, layer: np.ndarray, middle: np.ndarray) -> Mesh:
    """The mesh with left-layer nodes layer (x_0 = 0 .. x_L), the interior
    nodes middle strictly between x_L and 1 - x_L, and the right layer
    1 - x_j mirrored from the left."""
    x_t = float(layer[-1])
    if x_t >= 0.5:
        raise RegionOverlap(
            f"graded region reaches x = {x_t:.4g} >= 1/2; "
            f"{_scale_text(spec)} is too large for N = {spec.n_elements}"
        )
    # + 0.0 normalizes the -0.0 a layer map may give at x_0
    nodes = np.concatenate([layer, middle, 1.0 - layer[::-1]]) + 0.0
    widths = np.diff(nodes)
    if np.any(widths <= 0.0):
        # the left layer sits near 0, where doubles are dense; its mirror
        # 1 - x_j is where nodes run out of distinct values first
        raise InvalidSpec(
            f"mesh nodes are not strictly increasing: {_scale_text(spec)} is "
            f"too small for N = {spec.n_elements}, the right-layer nodes "
            f"1 - x_j collapse because doubles near 1 are np.spacing(1.0) "
            f"= {np.spacing(1.0):.2g} apart; at this p and beta, N = "
            f"{spec.n_elements} needs epsilon >= {_epsilon_floor(spec):.3g}"
        )
    return Mesh(spec=spec, nodes=nodes, widths=widths, n_layer=len(layer) - 1)


@lru_cache(maxsize=32)
def build_mesh(spec: MeshSpec) -> Mesh:
    """The spec's mesh: its family's left layer and middle nodes, laid out
    with the mirrored right layer by _layout.  Cached, as shape_table is:
    the spec is frozen and the mesh read-only, so a study's checks, its
    reference and its rungs share one mesh per spec."""
    N, p = spec.n_elements, spec.p
    scale = spec.layer_scale
    if spec.kind is MeshKind.UNIFORM:
        return _layout(spec, np.zeros(1), np.linspace(0.0, 1.0, N + 1)[1:-1])
    if spec.kind is MeshKind.SHISHKIN:
        tau = min(0.25, scale * math.log(N))
        layer = 4.0 * tau * np.arange(N // 4 + 1) / N
        middle = tau + (1.0 - 2.0 * tau) * np.arange(1, N // 2) / (N // 2)
        return _layout(spec, layer, middle)
    c_pe = 1.0 - math.exp(-spec.beta / ((p + 1) * spec.epsilon))
    if c_pe == 0.0:
        raise InvalidSpec(
            f"grading constant 1 - exp(-beta/((p+1) epsilon)) rounds to 0: "
            f"beta = {spec.beta:g} is too small for epsilon = "
            f"{spec.epsilon:g} and p = {p}"
        )
    layer = scale * -np.log(1.0 - 4.0 * c_pe * (np.arange(N // 4) / N))
    x_t = layer[-1]
    return _layout(spec, layer,
                   np.linspace(x_t, 1.0 - x_t, N // 2 + 3)[1:-1])


@dataclass(frozen=True)
class BoundsReport:
    """Measured vs predicted widths for the graded elements of an exp mesh.

    For each graded element, bound = (eps/beta)(p+1) e^{x/((p+1) eps)} with x
    the element endpoint deeper into the domain (mirrored on the right), and
    ratio = h / bound.  transition_decay is e^{-beta x_L/eps} at the last
    layer node x_L, compared against N^{-(p+1)}.
    """

    element_index: np.ndarray
    widths: np.ndarray
    bounds: np.ndarray
    ratios: np.ndarray
    transition_decay: float
    decay_bound: float

    @property
    def all_satisfied(self) -> bool:
        return bool(np.all(self.widths <= self.bounds * (1.0 + 1e-12)))


def check_mesh_bounds(mesh: Mesh) -> BoundsReport:
    """Verify the per-element grading bound h_j <= (eps/beta)(p+1) e^{x_j/((p+1)eps)}
    on both layer regions of an exp mesh."""
    spec = mesh.spec
    if spec.kind != MeshKind.EXP:
        raise WrongMeshKind("mesh bounds are defined for exp meshes only")
    N = spec.n_elements
    scale = spec.layer_scale

    left_el = np.arange(mesh.n_layer)
    right_el = np.arange(N - mesh.n_layer, N)
    idx = np.concatenate([left_el, right_el])
    widths = mesh.widths[idx]
    depth = np.concatenate([mesh.nodes[left_el + 1], 1.0 - mesh.nodes[right_el]])
    bounds = scale * np.exp(depth / ((spec.p + 1) * spec.epsilon))

    x_tr = mesh.transition_left()
    decay = math.exp(-spec.beta * x_tr / spec.epsilon)
    return BoundsReport(
        element_index=idx,
        widths=widths,
        bounds=bounds,
        ratios=widths / bounds,
        transition_decay=decay,
        decay_bound=float(N) ** (-(spec.p + 1)),
    )
