"""Layer-adapted 1D meshes on [0, 1].

Three families: exponentially graded (exp), piecewise-uniform Shishkin, and
plain uniform.  The exp mesh packs N/4-1 geometrically graded elements into
each boundary layer using the grading function

    phi(t) = -ln(1 - 4 C t),     C = 1 - exp(-beta / ((p+1) eps)),

with nodes x_j = (eps/beta)(p+1) phi(j/N) on the left, the mirror image on
the right, and N/2+2 equal elements across the middle.  Every node comes from
the closed-form expression for its index (no cumulative sums), which keeps
the mirror symmetry x_j + x_{N-j} = 1 exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .csvout import write_csv
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
    p: element degree the mesh will carry (>= 3); enters the grading factor
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
        if not self.beta > 0.0:
            raise InvalidSpec(f"beta must be positive, got {self.beta}")
        if int(self.p) != self.p or self.p < 3:
            raise InvalidSpec(f"element degree must be an integer >= 3, got {self.p}")
        if int(self.n_elements) != self.n_elements or self.n_elements < 1:
            raise InvalidSpec(f"n_elements must be a positive integer, got {self.n_elements}")
        kind = MeshKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in (MeshKind.EXP, MeshKind.SHISHKIN):
            if self.n_elements <= 4 or self.n_elements % 4 != 0:
                raise InvalidSpec(
                    f"{kind.value} meshes need n_elements > 4 and divisible by 4, "
                    f"got {self.n_elements}"
                )


@dataclass(frozen=True)
class GradingFunction:
    """phi(t) = -ln(1 - 4 c_pe t) on [0, 1/4).

    c_pe = 1 - exp(-beta/((p+1) eps)) lies in (0, 1]; for eps small enough
    the float value rounds to exactly 1.0, which is fine everywhere phi is
    evaluated (arguments stay <= 1/4 - 1/N).
    """

    c_pe: float

    @classmethod
    def from_spec(cls, spec: MeshSpec) -> "GradingFunction":
        c = 1.0 - math.exp(-spec.beta / ((spec.p + 1) * spec.epsilon))
        return cls(c_pe=c)

    def __post_init__(self):
        if not (0.0 < self.c_pe <= 1.0):
            raise InvalidSpec(f"c_pe must lie in (0, 1], got {self.c_pe}")

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        arg = 1.0 - 4.0 * self.c_pe * t
        if np.any(arg <= 0.0):
            raise InvalidSpec("phi argument outside its domain (1 - 4 c t <= 0)")
        return -np.log(arg)


@dataclass(frozen=True)
class Mesh:
    """Nodes, widths and per-element region tags; immutable after build."""

    spec: MeshSpec
    nodes: np.ndarray
    widths: np.ndarray
    regions: tuple[Region, ...]

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.widths.setflags(write=False)

    @property
    def n_elements(self) -> int:
        return len(self.widths)

    def transition_left(self) -> float:
        """Left transition node x_{N/4-1} (exp) or tau (shishkin)."""
        spec = self.spec
        if spec.kind == MeshKind.EXP:
            return float(self.nodes[spec.n_elements // 4 - 1])
        if spec.kind == MeshKind.SHISHKIN:
            return float(self.nodes[spec.n_elements // 4])
        raise WrongMeshKind("uniform meshes have no transition point")


def _finish(spec: MeshSpec, nodes: np.ndarray, regions) -> Mesh:
    nodes = nodes + 0.0  # normalize -0.0 at the left endpoint
    widths = np.diff(nodes)
    if np.any(widths <= 0.0):
        # the left layer sits near 0, where doubles are dense; its mirror
        # 1 - x_j is where nodes run out of distinct values first
        raise InvalidSpec(
            f"mesh nodes are not strictly increasing: epsilon = "
            f"{spec.epsilon:g} is too small for N = {spec.n_elements}, the "
            f"right-layer nodes 1 - x_j collapse because doubles near 1 are "
            f"np.spacing(1.0) = {np.spacing(1.0):.2g} apart"
        )
    return Mesh(spec=spec, nodes=nodes, widths=widths, regions=tuple(regions))


def build_uniform_mesh(spec: MeshSpec) -> Mesh:
    if spec.kind != MeshKind.UNIFORM:
        raise WrongMeshKind(f"spec kind is {spec.kind.value}, not uniform")
    N = spec.n_elements
    nodes = np.linspace(0.0, 1.0, N + 1)
    return _finish(spec, nodes, [Region.INTERIOR] * N)


def build_shishkin_mesh(spec: MeshSpec) -> Mesh:
    """Piecewise-uniform mesh with transition point
    tau = min(1/4, (p+1)(eps/beta) ln N); N/4 elements per layer."""
    if spec.kind != MeshKind.SHISHKIN:
        raise WrongMeshKind(f"spec kind is {spec.kind.value}, not shishkin")
    N = spec.n_elements
    tau = min(0.25, (spec.p + 1) * (spec.epsilon / spec.beta) * math.log(N))
    j = np.arange(N + 1)
    nodes = np.empty(N + 1)
    left = j <= N // 4
    right = j >= 3 * N // 4
    mid = ~(left | right)
    nodes[left] = 4.0 * tau * j[left] / N
    nodes[mid] = tau + (1.0 - 2.0 * tau) * (j[mid] - N // 4) / (N // 2)
    nodes[right] = 1.0 - 4.0 * tau * (N - j[right]) / N
    regions = ([Region.LEFT_LAYER] * (N // 4)
               + [Region.INTERIOR] * (N // 2)
               + [Region.RIGHT_LAYER] * (N // 4))
    return _finish(spec, nodes, regions)


def build_exp_mesh(spec: MeshSpec) -> Mesh:
    """Exponentially graded mesh.

    Left layer nodes j = 0..N/4-1 from the grading formula, the mirrored
    right layer for j = 3N/4+1..N, and N/2+2 equal middle elements between
    the transition nodes x_{N/4-1} and x_{3N/4+1} = 1 - x_{N/4-1}.
    """
    if spec.kind != MeshKind.EXP:
        raise WrongMeshKind(f"spec kind is {spec.kind.value}, not exp")
    N = spec.n_elements
    grading = GradingFunction.from_spec(spec)
    scale = (spec.epsilon / spec.beta) * (spec.p + 1)

    x_left = scale * float(grading.phi((N // 4 - 1) / N))
    if x_left >= 0.5:
        raise RegionOverlap(
            f"graded region reaches x = {x_left:.4g} >= 1/2; "
            f"epsilon = {spec.epsilon} is too large for N = {N}"
        )
    x_right = 1.0 - x_left
    step = (x_right - x_left) / (N // 2 + 2)

    j = np.arange(N + 1)
    nodes = np.empty(N + 1)
    left = j <= N // 4 - 1
    right = j >= 3 * N // 4 + 1
    mid = ~(left | right)
    nodes[left] = scale * grading.phi(j[left] / N)
    nodes[mid] = x_left + step * (j[mid] - N // 4 + 1)
    nodes[right] = 1.0 - scale * grading.phi((N - j[right]) / N)

    regions = ([Region.LEFT_LAYER] * (N // 4 - 1)
               + [Region.INTERIOR] * (N // 2 + 2)
               + [Region.RIGHT_LAYER] * (N // 4 - 1))
    return _finish(spec, nodes, regions)


_BUILDERS = {
    MeshKind.EXP: build_exp_mesh,
    MeshKind.SHISHKIN: build_shishkin_mesh,
    MeshKind.UNIFORM: build_uniform_mesh,
}


def build_mesh(spec: MeshSpec) -> Mesh:
    return _BUILDERS[MeshKind(spec.kind)](spec)


@dataclass(frozen=True)
class BoundsReport:
    """Measured vs predicted widths for the graded elements of an exp mesh.

    For each graded element, bound = (eps/beta)(p+1) e^{x/((p+1) eps)} with x
    the element endpoint deeper into the domain (mirrored on the right), and
    ratio = h / bound.  transition_decay is e^{-beta x_{N/4-1}/eps}, compared
    against N^{-(p+1)}.
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
    scale = (spec.epsilon / spec.beta) * (spec.p + 1)

    left_el = np.arange(0, N // 4 - 1)
    right_el = np.arange(3 * N // 4 + 1, N)
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


def mesh_to_csv(mesh: Mesh, path) -> None:
    """One row per node: (index, x, region of the element to its right)."""
    regions = [r.value for r in mesh.regions] + ["-"]
    write_csv(path, ("index", "x", "region_right"), (int, float, str),
              zip(range(len(mesh.nodes)), mesh.nodes.tolist(), regions))
