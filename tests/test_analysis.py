import csv
import json

import numpy as np
import pytest

from hermevp import (AmbiguousSign, AssumptionViolated, CoefficientSet,
                     FEFunction, InvalidSpec, MeshSpec, NonpositiveError,
                     TooFewPoints, ZeroVector, align_sign, build_mesh,
                     compute_reference, convergence_study,
                     default_reference_n, discrete_max_error,
                     energy_norm_error, fit_slope, fit_slope_tail,
                     gauss_rule, interp_rate_study, sample_points)
from hermevp.analysis import CSV_COLUMNS, CSV_KINDS, ERROR_METRICS
from hermevp.csvout import write_csv


def make_function(n=4, seed=0, scale=1.0, p=3):
    mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=p,
                               n_elements=n, kind="uniform"))
    rng = np.random.default_rng(seed)
    values = np.zeros(n + 1)
    slopes = np.zeros(n + 1)
    values[1:n] = rng.standard_normal(n - 1)
    slopes[1:n] = rng.standard_normal(n - 1)
    return FEFunction(mesh=mesh, p=p, node_values=scale * values,
                      node_slopes=scale * slopes)


class TestAlignSign:
    def test_matching_orientation(self):
        assert align_sign(np.array([1.0, 2.0]), np.array([1.1, 1.9])) == 1.0

    def test_flipped_orientation(self):
        assert align_sign(np.array([1.0, 2.0]), np.array([-1.0, -2.0])) == -1.0

    def test_orthogonal_samples_ambiguous(self):
        with pytest.raises(AmbiguousSign):
            align_sign(np.array([1.0, -1.0]), np.array([1.0, 1.0]))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            align_sign(np.zeros(3), np.ones(3))


class TestEnergyNormError:
    def test_proportional_functions(self):
        u_ref = make_function(seed=1)
        u_h = make_function(seed=1, scale=1.01)
        err = energy_norm_error(u_h, u_ref, epsilon=0.3)
        assert err == pytest.approx(1.0, rel=1e-9)

    def test_zero_reference_rejected(self):
        u_ref = make_function(seed=2, scale=0.0)
        u_h = make_function(seed=2)
        with pytest.raises(NonpositiveError):
            energy_norm_error(u_h, u_ref, epsilon=0.3)

    def test_same_function_on_nested_meshes(self):
        # A piecewise cubic on 4 elements belongs to the 8-element space;
        # re-expressing it there must give zero error through the
        # union-mesh quadrature.
        coarse = make_function(n=4, seed=3)
        fine_mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                        n_elements=8, kind="uniform"))
        fine = FEFunction(mesh=fine_mesh, p=3,
                          node_values=coarse(fine_mesh.nodes),
                          node_slopes=coarse(fine_mesh.nodes, deriv=1))
        assert energy_norm_error(fine, coarse, epsilon=0.3) < 1e-10

    @pytest.mark.parametrize("p", [3, 5])
    def test_equals_per_derivative_loop(self, p):
        # one fused (0, 1, 2) evaluation per function must reproduce the
        # loop of single-order calls bit for bit
        u_ref = make_function(n=24, seed=7, p=p)
        u_h = make_function(n=16, seed=8, p=p)
        rng = np.random.default_rng(9)
        u_ref.bubbles[:] = rng.standard_normal(u_ref.bubbles.shape)
        u_h.bubbles[:] = rng.standard_normal(u_h.bubbles.shape)
        epsilon = 0.3

        breaks = np.union1d(u_h.mesh.nodes, u_ref.mesh.nodes)
        rule = gauss_rule(2 * p)
        widths = np.diff(breaks)
        x = (breaks[:-1, None] + widths[:, None] * rule.points).ravel()
        w = (widths[:, None] * rule.weights).ravel()
        err_sq = ref_sq = 0.0
        for deriv, factor in ((0, 1.0), (1, 1.0), (2, epsilon**2)):
            dh = u_h(x, deriv)
            dr = u_ref(x, deriv)
            err_sq += factor * float(w @ (dh - dr) ** 2)
            ref_sq += factor * float(w @ dr**2)
        expect = 100.0 * np.sqrt(err_sq / ref_sq)
        assert energy_norm_error(u_h, u_ref, epsilon) == expect

    @pytest.mark.parametrize("kind", ["exp", "shishkin"])
    def test_breaks_keep_every_layer_node(self, kind, monkeypatch):
        # at eps = 1e-14 the finest layer elements are ~1e-16 wide; each
        # interval of the union mesh must still get its own Gauss points
        def layer_function(n):
            mesh = build_mesh(MeshSpec(epsilon=1e-14, beta=1.0, p=3,
                                       n_elements=n, kind=kind))
            x = mesh.nodes
            return FEFunction(mesh=mesh, p=3, node_values=x * (1.0 - x),
                              node_slopes=1.0 - 2.0 * x)

        u_h, u_ref = layer_function(16), layer_function(1024)
        seen = []
        call = FEFunction.__call__

        def record(self, x, deriv=0):
            seen.append(np.asarray(x))
            return call(self, x, deriv)

        monkeypatch.setattr(FEFunction, "__call__", record)
        energy_norm_error(u_h, u_ref, epsilon=1e-14)
        breaks = np.union1d(u_h.mesh.nodes, u_ref.mesh.nodes)
        nq = len(gauss_rule(6).points)
        x = seen[0].reshape(-1, nq)
        assert len(x) == len(breaks) - 1
        assert np.all(x.min(axis=1) >= breaks[:-1])
        assert np.all(x.max(axis=1) <= breaks[1:])


class TestDiscreteMaxError:
    def test_proportional_functions(self):
        u_ref = make_function(seed=4)
        u_h = make_function(seed=4, scale=1.01)
        pts = np.linspace(0.0, 1.0, 101)
        assert discrete_max_error(u_h(pts), u_ref(pts)) == pytest.approx(
            1.0, rel=1e-12)

    def test_zero_reference_rejected(self):
        u_ref = make_function(seed=5, scale=0.0)
        u_h = make_function(seed=5)
        pts = np.linspace(0, 1, 11)
        with pytest.raises(NonpositiveError):
            discrete_max_error(u_h(pts), u_ref(pts))

    def test_needs_points(self):
        u = make_function(seed=6)
        with pytest.raises(TooFewPoints):
            discrete_max_error(u(0.5), u(0.5))


class TestSamplePoints:
    def test_layer_mesh_coverage(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-4, beta=1.0, p=3,
                                   n_elements=16, kind="exp"))
        pts = sample_points(mesh, per_region=100)
        t = mesh.transition_left()
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert np.all(np.isin(mesh.nodes, pts))
        # each region really gets its share of points
        assert np.sum(pts <= t) >= 100
        assert np.sum((pts >= t) & (pts <= 1 - t)) >= 100
        assert np.sum(pts >= 1 - t) >= 100

    def test_uniform_mesh_single_sweep(self):
        mesh = build_mesh(MeshSpec(epsilon=0.5, beta=1.0, p=3,
                                   n_elements=10, kind="uniform"))
        pts = sample_points(mesh, per_region=50)
        assert len(pts) >= 150
        assert np.all(np.diff(pts) > 0.0)

    def test_too_few(self):
        mesh = build_mesh(MeshSpec(epsilon=0.5, beta=1.0, p=3,
                                   n_elements=10, kind="uniform"))
        with pytest.raises(TooFewPoints):
            sample_points(mesh, per_region=1)


class TestFitSlope:
    def test_exact_power_law(self):
        ns = np.array([4.0, 8.0, 16.0, 32.0])
        fit = fit_slope(ns, 3.0 * ns**-4)
        assert fit.slope == pytest.approx(4.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
        assert fit.max_log_residual < 1e-12
        assert fit.ns == (4.0, 8.0, 16.0, 32.0)

    def test_needs_two_points(self):
        with pytest.raises(TooFewPoints):
            fit_slope([8.0], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(TooFewPoints):
            fit_slope([8.0, 16.0], [1.0])

    def test_positive_errors_required(self):
        with pytest.raises(NonpositiveError):
            fit_slope([8.0, 16.0], [1.0, 0.0])

    def test_tail_fit_drops_corrupted_coarse_level(self):
        ns = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        errors = 2.0 * ns**-3
        errors[0] *= 100.0
        full = fit_slope(ns, errors)
        tail = fit_slope_tail(ns, errors, max_residual=0.25, min_points=3)
        assert full.max_log_residual > 0.25
        assert len(tail.ns) == 4
        assert tail.slope == pytest.approx(3.0, abs=1e-10)


class TestInterpRateStudy:
    def test_layer_regime_enforced(self):
        with pytest.raises(AssumptionViolated):
            interp_rate_study("exp", 0.1, 1.0, 3, (16, 32))

    def test_orders_match_standalone_measurement(self):
        # Fitted orders for the layer exponential at eps=1e-6 on the
        # graded mesh, pinned against an independent scalar-arithmetic
        # implementation of the same three metrics.
        rep = interp_rate_study("exp", 1e-6, 1.0, 3, (16, 32, 64, 128),
                                per_element=200)
        assert rep.order("max_err").slope == pytest.approx(4.909, abs=0.02)
        assert rep.order("max_err_d1").slope == pytest.approx(2.960, abs=0.02)
        assert rep.order("scaled_h2_err").slope == pytest.approx(1.995,
                                                                 abs=0.02)

    def test_errors_decrease(self):
        rep = interp_rate_study("exp", 1e-6, 1.0, 3, (16, 32, 64))
        for metric in ("max_err", "max_err_d1", "scaled_h2_err"):
            _, vals = rep.series(metric)
            assert np.all(np.diff(vals) < 0.0)


class TestReference:
    def test_default_reference_size(self):
        assert default_reference_n([16, 32]) == 512
        assert default_reference_n([128]) == 1024

    def test_reference_solution_contents(self):
        coeffs = CoefficientSet(a=lambda x: np.ones_like(x),
                                b=lambda x: np.zeros_like(x),
                                epsilon=1e-2, a_floor=1.0)
        ref = compute_reference("exp", 1e-2, 1.0, 3, 64, coeffs, modes=2)
        assert ref.mesh.n_elements == 64
        assert len(ref.functions) == 2
        assert ref.spectrum.eigenvalues.shape == (2,)


@pytest.fixture(scope="module")
def study():
    coeffs = CoefficientSet(a=np.exp, b=lambda x: x,
                            epsilon=1e-2, a_floor=1.0)
    return convergence_study("exp", 1e-2, 1.0, 3, (8, 12, 16), coeffs,
                             modes=2, ref_n=64, per_region=200)


class TestConvergenceStudy:
    def test_record_grid(self, study):
        assert len(study.records) == 6
        assert study.modes() == [1, 2]
        for r in study.records:
            assert r.dof == 2 * (r.N - 1)
            assert r.mesh_kind == "exp"

    def test_errors_decrease_with_refinement(self, study):
        for mode in (1, 2):
            _, errs = study.series(mode, "lambda_err_pct")
            assert np.all(np.diff(errs) < 0.0)

    def test_series_axes(self, study):
        ns, _ = study.series(1, "lambda_err_pct", vs="N")
        dofs, _ = study.series(1, "lambda_err_pct", vs="dof")
        assert ns == [8, 12, 16]
        assert dofs == [14, 22, 30]
        with pytest.raises(InvalidSpec):
            study.series(1, "lambda_err_pct", vs="h")

    def test_slope_blocks_cover_metrics(self, study):
        blocks = study.slope_blocks()
        for metric in ERROR_METRICS:
            assert metric in blocks
            assert set(blocks[metric]) == {"1", "2"}
            assert np.isfinite(blocks[metric]["1"]["slope"])

    def test_csv_roundtrip(self, study, tmp_path):
        path = tmp_path / "study.csv"
        write_csv(path, CSV_COLUMNS, CSV_KINDS,
                  [[getattr(r, c) for c in CSV_COLUMNS]
                   for r in study.records])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert tuple(rows[0]) == CSV_COLUMNS
        for row, rec in zip(rows, study.records):
            assert float(row["lambda_h"]) == rec.lambda_h
            assert int(row["N"]) == rec.N

    def test_json_payload(self, study, tmp_path):
        path = tmp_path / "study.json"
        study.to_json(path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"records", "slopes"}
        assert len(payload["records"]) == 6
        assert payload["records"][0]["mode"] == 1

    def test_on_record_streams_every_row(self):
        seen = []
        coeffs = CoefficientSet(a=lambda x: np.ones_like(x),
                                b=lambda x: np.zeros_like(x),
                                epsilon=1e-2, a_floor=1.0)
        convergence_study("exp", 1e-2, 1.0, 3, (8, 12), coeffs,
                          modes=1, ref_n=32, per_region=100,
                          on_record=seen.append)
        assert [r.N for r in seen] == [8, 12]

    def test_eigenfunction_sup_norm_orders(self):
        # Pointwise rates observed for the first mode at eps=1e-3; the
        # value error tracks h^p+ and the slope error h^{p-1}+, so the
        # fitted orders must land in generous windows around 4 and 3.
        coeffs = CoefficientSet(a=np.exp, b=lambda x: x,
                                epsilon=1e-3, a_floor=1.0)
        study = convergence_study("exp", 1e-3, 1.0, 3, (16, 32, 64), coeffs,
                                  modes=1, ref_n=512, per_region=400)
        u_order = study.order(1, "maxnorm_u_pct").slope
        du_order = study.order(1, "maxnorm_du_pct").slope
        assert 2.5 < u_order < 4.5
        assert 1.5 < du_order < 3.5
