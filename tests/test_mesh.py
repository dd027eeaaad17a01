import csv
import hashlib
import itertools

import numpy as np
import pytest

from hermevp import (InvalidSpec, MeshKind, MeshSpec, Region, RegionOverlap,
                     WrongMeshKind, build_mesh, check_mesh_bounds)
from hermevp.cli import main


class TestMeshSpec:
    def test_valid_spec_roundtrip(self):
        spec = MeshSpec(epsilon=1e-3, beta=1.0, p=3, n_elements=16, kind="exp")
        assert spec.kind is MeshKind.EXP
        assert spec.n_elements == 16

    @pytest.mark.parametrize("eps", [0.0, -1e-3, 1.5])
    def test_epsilon_out_of_range(self, eps):
        with pytest.raises(InvalidSpec):
            MeshSpec(epsilon=eps, beta=1.0, p=3, n_elements=16, kind="exp")

    def test_beta_must_be_positive(self):
        with pytest.raises(InvalidSpec):
            MeshSpec(epsilon=1e-3, beta=0.0, p=3, n_elements=16, kind="exp")

    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_beta_must_be_finite(self, beta):
        with pytest.raises(InvalidSpec, match="beta"):
            MeshSpec(epsilon=1e-3, beta=beta, p=3, n_elements=16, kind="exp")

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_degree_too_low(self, p):
        with pytest.raises(InvalidSpec):
            MeshSpec(epsilon=1e-3, beta=1.0, p=p, n_elements=16, kind="exp")

    @pytest.mark.parametrize("kind", ["exp", "shishkin"])
    @pytest.mark.parametrize("n", [4, 6, 13])
    def test_layer_meshes_need_multiple_of_four_above_four(self, kind, n):
        with pytest.raises(InvalidSpec):
            MeshSpec(epsilon=1e-3, beta=1.0, p=3, n_elements=n, kind=kind)

    def test_uniform_allows_any_positive_count(self):
        spec = MeshSpec(epsilon=1e-3, beta=1.0, p=3, n_elements=5,
                        kind="uniform")
        assert build_mesh(spec).n_elements == 5

    def test_unknown_kind(self):
        with pytest.raises((InvalidSpec, ValueError)):
            MeshSpec(epsilon=1e-3, beta=1.0, p=3, n_elements=16,
                     kind="chebyshev")


class TestExpMesh:
    """Node positions pinned against values computed by a standalone
    script with independent scalar arithmetic."""

    def test_frozen_nodes(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=3,
                                   n_elements=16, kind="exp"))
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[1] == 0.0011507282898071236
        assert mesh.nodes[2] == 0.0027725887222397813
        assert mesh.nodes[3] == 0.005545177444479563
        assert mesh.nodes[4] == 0.10443614195558365
        assert mesh.nodes[8] == 0.5
        assert mesh.nodes[16] == 1.0

    def test_mirror_symmetry_to_rounding(self):
        for n in (8, 16, 64):
            mesh = build_mesh(MeshSpec(epsilon=1e-4, beta=2.0, p=4,
                                       n_elements=n, kind="exp"))
            assert np.max(np.abs(mesh.nodes + mesh.nodes[::-1] - 1.0)) < 3e-16

    def test_strictly_increasing_and_widths(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-6, beta=1.0, p=3,
                                   n_elements=32, kind="exp"))
        assert np.all(mesh.widths > 0.0)
        assert np.sum(mesh.widths) == pytest.approx(1.0, rel=1e-14)

    def test_region_counts(self):
        n = 32
        mesh = build_mesh(MeshSpec(epsilon=1e-6, beta=1.0, p=3,
                                   n_elements=n, kind="exp"))
        counts = {region: mesh.regions.count(region)
                  for region in Region}
        assert counts[Region.LEFT_LAYER] == n // 4 - 1
        assert counts[Region.INTERIOR] == n // 2 + 2
        assert counts[Region.RIGHT_LAYER] == n // 4 - 1

    def test_first_node_is_positive_zero(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=3,
                                   n_elements=16, kind="exp"))
        assert np.copysign(1.0, mesh.nodes[0]) == 1.0

    def test_region_overlap_for_large_epsilon(self):
        with pytest.raises(RegionOverlap):
            build_mesh(MeshSpec(epsilon=0.9, beta=1.0, p=3,
                                n_elements=16, kind="exp"))

    def test_graded_widths_increase_toward_interior(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-6, beta=1.0, p=3,
                                   n_elements=32, kind="exp"))
        left = mesh.widths[:7]
        assert np.all(np.diff(left) > 0.0)

    def test_grading_constant_rounding_to_zero_refused(self):
        # beta/((p+1) eps) = 2.5e-18 makes 1 - exp(-beta/((p+1) eps)) = 0,
        # which would put every layer node at 0
        with pytest.raises(InvalidSpec) as info:
            build_mesh(MeshSpec(epsilon=1.0, beta=1e-17, p=3, n_elements=16,
                                kind="exp"))
        msg = str(info.value)
        assert "grading constant" in msg and "beta = 1e-17" in msg
        assert "collapse" not in msg


class TestShishkinMesh:
    def test_frozen_nodes(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-4, beta=1.0, p=3,
                                   n_elements=16, kind="shishkin"))
        assert mesh.transition_left() == 0.0011090354888959124
        assert mesh.nodes[1] == 0.0002772588722239781
        assert mesh.nodes[5] == 0.12583177661667194

    def test_piecewise_uniform(self):
        n = 16
        mesh = build_mesh(MeshSpec(epsilon=1e-4, beta=1.0, p=3,
                                   n_elements=n, kind="shishkin"))
        w = mesh.widths
        for part in (w[: n // 4], w[n // 4: 3 * n // 4], w[3 * n // 4:]):
            assert np.ptp(part) < 1e-15

    def test_transition_capped_at_quarter(self):
        mesh = build_mesh(MeshSpec(epsilon=0.2, beta=1.0, p=3,
                                   n_elements=8, kind="shishkin"))
        assert mesh.transition_left() == 0.25

    def test_mirror_symmetry(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-5, beta=1.5, p=3,
                                   n_elements=32, kind="shishkin"))
        assert np.max(np.abs(mesh.nodes + mesh.nodes[::-1] - 1.0)) < 1e-16


class TestUniformMesh:
    def test_nodes_equispaced(self):
        mesh = build_mesh(MeshSpec(epsilon=0.5, beta=1.0, p=3,
                                   n_elements=10, kind="uniform"))
        assert np.array_equal(mesh.nodes, np.linspace(0.0, 1.0, 11))
        assert all(r == Region.INTERIOR for r in mesh.regions)

    def test_transition_undefined(self):
        mesh = build_mesh(MeshSpec(epsilon=0.5, beta=1.0, p=3,
                                   n_elements=10, kind="uniform"))
        with pytest.raises(WrongMeshKind):
            mesh.transition_left()


class TestLayout:
    @pytest.mark.parametrize("kind,n_layer", [
        ("exp", 32 // 4 - 1), ("shishkin", 32 // 4), ("uniform", 0)])
    def test_layer_counts_and_regions(self, kind, n_layer):
        mesh = build_mesh(MeshSpec(epsilon=1e-4, beta=1.0, p=3,
                                   n_elements=32, kind=kind))
        assert mesh.n_layer == n_layer
        assert mesh.regions == ((Region.LEFT_LAYER,) * n_layer
                                + (Region.INTERIOR,) * (32 - 2 * n_layer)
                                + (Region.RIGHT_LAYER,) * n_layer)

    @pytest.mark.parametrize("kind", ["exp", "shishkin"])
    def test_layers_mirror_exactly(self, kind):
        mesh = build_mesh(MeshSpec(epsilon=1e-6, beta=2.0, p=5,
                                   n_elements=64, kind=kind))
        n = mesh.n_layer
        assert np.array_equal(mesh.nodes[-n - 1:],
                              1.0 - mesh.nodes[n::-1])

    # sha256 over the little-endian node bytes of every mesh of the grid,
    # in product order; the values were computed before the families
    # shared one layout, so any moved node or sign of zero shows here.
    # The exp digest depends on the platform's log being bit-reproducible.
    GOLDEN_GRID = ((1e-2, 1e-6, 1e-10), (0.5, 1.0, 2.0), (3, 5),
                   (8, 16, 64, 256))
    GOLDEN_DIGESTS = {
        "exp": "baec5c616e245b80ec5019d9c386993a45e9da1cd4e815e374039e9d13dd7c48",
        "shishkin": "761f51c6b979348c97391d62fb19d308f515cdf9811afa54d917db8217bdd991",
        "uniform": "b3c82bd2ad7c9b05c24eeb99169d365c830b751ce5a56a11c5248f2d963c3351",
    }

    @pytest.mark.parametrize("kind", sorted(GOLDEN_DIGESTS))
    def test_golden_node_digest(self, kind):
        sha = hashlib.sha256()
        for eps, beta, p, n in itertools.product(*self.GOLDEN_GRID):
            mesh = build_mesh(MeshSpec(epsilon=eps, beta=beta, p=p,
                                       n_elements=n, kind=kind))
            sha.update(mesh.nodes.astype("<f8").tobytes())
        assert sha.hexdigest() == self.GOLDEN_DIGESTS[kind]


class TestMeshImmutability:
    def test_node_array_read_only(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=3,
                                   n_elements=16, kind="exp"))
        with pytest.raises(ValueError):
            mesh.nodes[0] = 0.5
        with pytest.raises(ValueError):
            mesh.widths[0] = 0.5


class TestMeshBounds:
    def test_width_bounds_satisfied_in_layer_regime(self):
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            mesh = build_mesh(MeshSpec(epsilon=eps, beta=1.0, p=3,
                                       n_elements=32, kind="exp"))
            report = check_mesh_bounds(mesh)
            assert report.all_satisfied, f"eps={eps}: ratios {report.ratios}"

    def test_frozen_transition_decay(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-6, beta=1.0, p=3,
                                   n_elements=32, kind="exp"))
        report = check_mesh_bounds(mesh)
        assert report.transition_decay == 0.00024414062500000016
        ratio = report.transition_decay / report.decay_bound
        assert ratio == pytest.approx(256.0, rel=1e-12)

    def test_report_covers_both_layer_sides(self):
        n = 32
        mesh = build_mesh(MeshSpec(epsilon=1e-6, beta=1.0, p=3,
                                   n_elements=n, kind="exp"))
        report = check_mesh_bounds(mesh)
        assert len(report.element_index) == 2 * (n // 4 - 1)
        assert np.all(report.ratios > 0.0)

    def test_rejects_non_graded_meshes(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-4, beta=1.0, p=3,
                                   n_elements=16, kind="shishkin"))
        with pytest.raises(WrongMeshKind):
            check_mesh_bounds(mesh)

    def test_scaled_max_width_bounded_across_epsilon_sweep(self):
        for n in (16, 64):
            scaled = []
            for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
                mesh = build_mesh(MeshSpec(epsilon=eps, beta=1.0, p=3,
                                           n_elements=n, kind="exp"))
                scaled.append(n * np.max(mesh.widths))
            assert max(scaled) < 4.0


class TestTinyEpsilon:
    @pytest.mark.parametrize("kind", ["exp", "shishkin"])
    def test_collapsed_right_layer_named(self, kind):
        # doubles near 1 are 2.2e-16 apart, so the nodes 1 - x_j of the
        # right layer coincide once eps*ln(N) reaches that scale
        with pytest.raises(InvalidSpec) as info:
            build_mesh(MeshSpec(epsilon=1e-16, beta=1.0, p=3, n_elements=64,
                                kind=kind))
        msg = str(info.value)
        assert "epsilon = 1e-16" in msg and "N = 64" in msg
        assert "right-layer nodes" in msg and "np.spacing(1.0)" in msg

    @pytest.mark.parametrize("n", [16, 64, 1024])
    @pytest.mark.parametrize("kind", ["exp", "shishkin"])
    def test_refusal_names_the_smallest_epsilon(self, kind, n):
        def builds(eps):
            try:
                build_mesh(MeshSpec(epsilon=eps, beta=1.0, p=3,
                                    n_elements=n, kind=kind))
            except InvalidSpec:
                return False
            return True

        with pytest.raises(InvalidSpec) as info:
            build_mesh(MeshSpec(epsilon=1e-20, beta=1.0, p=3, n_elements=n,
                                kind=kind))
        msg = str(info.value)
        assert "\n" not in msg
        named = float(msg.rsplit("needs epsilon >= ", 1)[1])
        assert builds(named)
        # the true threshold by bisection on log(eps), between a refused
        # epsilon and the named one
        lo, hi = 1e-20, named
        while hi / lo > 1.0 + 1e-6:
            mid = (lo * hi) ** 0.5
            lo, hi = (lo, mid) if builds(mid) else (mid, hi)
        assert named / 2.0 <= hi <= named

    @pytest.mark.parametrize("kind", ["exp", "shishkin"])
    def test_coarse_mesh_still_builds(self, kind):
        mesh = build_mesh(MeshSpec(epsilon=1e-16, beta=1.0, p=3,
                                   n_elements=8, kind=kind))
        assert np.all(mesh.widths > 0.0)


class TestMeshSerialization:
    def test_csv_roundtrip(self, tmp_path):
        mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=3,
                                   n_elements=16, kind="exp"))
        assert main(["mesh-dump", "--epsilon", "1e-3", "--n", "16",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "mesh.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "x", "region_right"]
        assert len(rows) == len(mesh.nodes) + 1
        xs = np.array([float(r[1]) for r in rows[1:]])
        assert np.array_equal(xs, mesh.nodes)
        assert rows[-1][2] == "-"
        assert rows[1][2] == Region.LEFT_LAYER.value
