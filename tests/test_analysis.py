import csv
import json
import tracemalloc

import numpy as np
import pytest

import hermevp.analysis
from hermevp import (AmbiguousSign, AssumptionViolated, CoefficientSet,
                     DimensionMismatch, FEFunction, InvalidSpec, KTooLarge,
                     MeshSpec, NoConvergence, NonpositiveError, SolverConfig,
                     StudyRecord, StudyReport, TooFewPoints, ZeroVector,
                     align_sign,
                     build_mesh, compute_reference, convergence_study,
                     default_reference_n, discrete_max_error,
                     energy_norm_error, fit_slope, gauss_rule,
                     interp_rate_study, sample_points)
from hermevp.analysis import ERROR_METRICS, SAMPLES_PER_REGION
from hermevp.cli import CSV_COLUMNS, CSV_KINDS, main
from hermevp.csvout import write_csv
from hermevp.element import PiecewiseFunction
from oracle import one_pass_sup_errors, sweep_points


def make_function(n=4, seed=0, scale=1.0, p=3):
    mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=p,
                               n_elements=n, kind="uniform"))
    rng = np.random.default_rng(seed)
    values = np.zeros(n + 1)
    slopes = np.zeros(n + 1)
    values[1:n] = rng.standard_normal(n - 1)
    slopes[1:n] = rng.standard_normal(n - 1)
    return FEFunction(mesh=mesh, node_values=scale * values,
                      node_slopes=scale * slopes,
                      bubbles=np.zeros((n, p - 3)))


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

    def test_mode_axis_equals_column_calls(self):
        rng = np.random.default_rng(11)
        ref = rng.standard_normal((40, 3))
        u = ref * [1.0, -1.0, 1.0] + 0.1 * rng.standard_normal((40, 3))
        signs = align_sign(u, ref)
        assert signs.shape == (3,)
        assert signs.tolist() == [align_sign(u[:, m], ref[:, m])
                                  for m in range(3)] == [1.0, -1.0, 1.0]

    def test_any_failing_column_refuses(self):
        ref = np.array([[1.0, 1.0], [2.0, 1.0]])
        with pytest.raises(AmbiguousSign):
            align_sign(np.array([[1.0, 1.0], [2.0, -1.0]]), ref)
        with pytest.raises(ZeroVector):
            align_sign(np.array([[1.0, 0.0], [2.0, 0.0]]), ref)


class TestEnergyNormError:
    def test_proportional_functions(self):
        u_ref = make_function(seed=1)
        u_h = make_function(seed=1, scale=1.01)
        err = energy_norm_error(u_h, u_ref)
        assert err == pytest.approx(1.0, rel=1e-9)

    def test_zero_reference_rejected(self):
        u_ref = make_function(seed=2, scale=0.0)
        u_h = make_function(seed=2)
        with pytest.raises(NonpositiveError):
            energy_norm_error(u_h, u_ref)

    def test_same_function_on_nested_meshes(self):
        # A piecewise cubic on 4 elements belongs to the 8-element space;
        # re-expressing it there must give zero error through the
        # union-mesh quadrature.
        coarse = make_function(n=4, seed=3)
        fine_mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                        n_elements=8, kind="uniform"))
        fine = FEFunction(mesh=fine_mesh,
                          node_values=coarse(fine_mesh.nodes),
                          node_slopes=coarse(fine_mesh.nodes, deriv=1))
        assert energy_norm_error(fine, coarse) < 1e-10

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_modes_equal_single_mode_calls(self, p):
        # the ladder rung and the reference each hold three modes; every
        # mode's error equals the single-mode call bit for bit
        def functions(n, seed):
            rng = np.random.default_rng(seed)
            mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=p,
                                       n_elements=n, kind="exp"))
            values = rng.standard_normal((n + 1, 3))
            slopes = rng.standard_normal((n + 1, 3))
            values[[0, -1]] = slopes[[0, -1]] = 0.0
            return FEFunction(mesh=mesh, node_values=values,
                              node_slopes=slopes,
                              bubbles=rng.standard_normal((n, p - 3, 3)))

        def mode(u, m):
            return FEFunction(mesh=u.mesh,
                              node_values=u.node_values[:, m].copy(),
                              node_slopes=u.node_slopes[:, m].copy(),
                              bubbles=u.bubbles[..., m].copy())

        u_h, u_ref = functions(16, p), functions(64, 10 + p)
        errors = energy_norm_error(u_h, u_ref)
        assert errors.shape == (3,)
        for m in range(3):
            assert errors[m] == energy_norm_error(mode(u_h, m),
                                                  mode(u_ref, m))
        with pytest.raises(DimensionMismatch):
            energy_norm_error(u_h, mode(u_ref, 0))

    @pytest.mark.parametrize("p", [3, 5])
    def test_negating_a_mode_leaves_the_error(self, p):
        # an eigenvector is defined up to sign: negating any mode of u_h
        # gives the same errors bit for bit
        rng = np.random.default_rng(p)

        def functions(n):
            mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=p,
                                       n_elements=n, kind="exp"))
            values = np.sin(np.outer(mesh.nodes, [np.pi, 2 * np.pi]))
            slopes = np.cos(np.outer(mesh.nodes, [np.pi, 2 * np.pi])) * \
                [np.pi, 2 * np.pi]
            return FEFunction(mesh=mesh, node_values=values,
                              node_slopes=slopes,
                              bubbles=1e-3 * rng.standard_normal((n, p - 3,
                                                                  2)))

        u_h, u_ref = functions(16), functions(64)
        errors = energy_norm_error(u_h, u_ref)
        assert np.all(errors < 100.0)
        for flip in ([-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]):
            flipped = FEFunction(mesh=u_h.mesh,
                                 node_values=flip * u_h.node_values,
                                 node_slopes=flip * u_h.node_slopes,
                                 bubbles=flip * u_h.bubbles)
            assert energy_norm_error(flipped, u_ref).tolist() == \
                errors.tolist()

    @pytest.mark.parametrize("p", [3, 5])
    def test_equals_per_derivative_loop(self, p):
        # one fused (0, 1, 2) evaluation per function must reproduce the
        # loop of single-order calls bit for bit
        rng = np.random.default_rng(9)

        def with_random_bubbles(u):
            return FEFunction(mesh=u.mesh, node_values=u.node_values,
                              node_slopes=u.node_slopes,
                              bubbles=rng.standard_normal(u.bubbles.shape))

        u_ref = with_random_bubbles(make_function(n=24, seed=7, p=p))
        u_h = with_random_bubbles(make_function(n=16, seed=8, p=p))
        if p > 3:
            assert np.all(u_ref.bubbles != 0.0) and np.all(u_h.bubbles != 0.0)
        epsilon = 0.3

        breaks = np.union1d(u_h.mesh.nodes, u_ref.mesh.nodes)
        rule = gauss_rule(p + 1)            # the default rule
        widths = np.diff(breaks)
        w = (widths[:, None] * rule.weights).ravel()

        def local(u):
            # each Gauss point as (element, local coordinate) of u's mesh
            e = np.searchsorted(u.mesh.nodes, breaks[:-1], side="right") - 1
            t = ((breaks[:-1] - u.mesh.nodes[e])[:, None]
                 + widths[:, None] * rule.points) / u.mesh.widths[e, None]
            return t.ravel(), np.repeat(e, rule.n_points)

        (th, eh), (tr, er) = local(u_h), local(u_ref)
        minus = plus = ref_sq = 0.0
        for deriv, factor in ((0, 1.0), (1, 1.0), (2, epsilon**2)):
            dh = u_h(th, deriv, element=eh)
            dr = u_ref(tr, deriv, element=er)
            minus += factor * float(w @ (dh - dr) ** 2)
            plus += factor * float(w @ (dh + dr) ** 2)
            ref_sq += factor * float(w @ dr**2)
        # the error is taken against the nearer of +-u_ref
        expect = 100.0 * np.sqrt(min(minus, plus) / ref_sq)
        assert energy_norm_error(u_h, u_ref) == expect

    @pytest.mark.parametrize("kind", ["exp", "shishkin"])
    def test_breaks_keep_every_layer_node(self, kind, monkeypatch):
        # at eps = 1e-14 the finest layer elements are ~1e-16 wide; each
        # interval of the union mesh must still get its own Gauss points
        def layer_function(n):
            mesh = build_mesh(MeshSpec(epsilon=1e-14, beta=1.0, p=3,
                                       n_elements=n, kind=kind))
            x = mesh.nodes
            return FEFunction(mesh=mesh, node_values=x * (1.0 - x),
                              node_slopes=1.0 - 2.0 * x)

        u_h, u_ref = layer_function(16), layer_function(1024)
        seen = []
        call = FEFunction.__call__

        def record(self, t, deriv=0, element=None):
            # the points, from their local coordinates in u_h's elements
            seen.append(self.mesh.nodes[element]
                        + t * self.mesh.widths[element])
            return call(self, t, deriv, element)

        monkeypatch.setattr(FEFunction, "__call__", record)
        energy_norm_error(u_h, u_ref)
        breaks = np.union1d(u_h.mesh.nodes, u_ref.mesh.nodes)
        nq = len(gauss_rule(3 + 1).points)  # the default rule at p = 3
        x = seen[0].reshape(-1, nq)
        assert len(x) == len(breaks) - 1
        assert np.all(x.min(axis=1) >= breaks[:-1])
        assert np.all(x.max(axis=1) <= breaks[1:])

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-5, 1e-8])
    @pytest.mark.parametrize("kind", ["exp", "shishkin"])
    @pytest.mark.parametrize("p", [3, 4, 5])
    @pytest.mark.parametrize("data", ["smooth", "rough"])
    def test_default_rule_is_exact(self, monkeypatch, data, p, kind,
                                   epsilon):
        # both functions are degree-p polynomials on each union interval,
        # so p+1 Gauss points integrate the degree-2p integrands exactly
        # and longer rules, put in place of the p+1 point rule the error
        # asks for, can only add rounding.  Smooth data keep the
        # L2 part, the one integrand of full degree 2p, from being swamped,
        # so a rule one point short shows.  Rough data have derivatives of
        # size 1/h, which put the energy on the layer elements, where
        # points near x = 1 are resolved only in local coordinates.
        def random_function(n, seed):
            mesh = build_mesh(MeshSpec(epsilon=epsilon, beta=1.0, p=p,
                                       n_elements=n, kind=kind))
            rng = np.random.default_rng(seed)
            if data == "smooth":
                amp = rng.standard_normal(6)
                k = np.pi * np.arange(1, 7)
                values = np.sin(np.outer(mesh.nodes, k)) @ amp
                slopes = np.cos(np.outer(mesh.nodes, k)) @ (k * amp)
                bubbles = mesh.widths[:, None] * rng.standard_normal(
                    (n, p - 3))
            else:
                values, slopes = rng.standard_normal((2, n + 1))
                bubbles = rng.standard_normal((n, p - 3))
            values[[0, -1]] = slopes[[0, -1]] = 0.0
            return FEFunction(mesh=mesh, node_values=values,
                              node_slopes=slopes, bubbles=bubbles)

        u_h, u_ref = random_function(16, 1), random_function(48, 2)
        default = energy_norm_error(u_h, u_ref)
        asked = []
        for n_gauss in (2 * p, 12):
            def longer_rule(n_points, n_gauss=n_gauss):
                asked.append(n_points)
                return gauss_rule(n_gauss)

            monkeypatch.setattr(hermevp.analysis, "gauss_rule", longer_rule)
            longer = energy_norm_error(u_h, u_ref)
            assert default == pytest.approx(longer, rel=1e-13, abs=0.0)
        assert asked == [p + 1, p + 1]


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
        with pytest.raises(TooFewPoints):
            discrete_max_error(np.ones((1, 3)), np.ones((1, 3)))

    def test_mode_axis_equals_column_calls(self):
        rng = np.random.default_rng(12)
        ref = rng.standard_normal((60, 3))
        u_h = ref + 1e-3 * rng.standard_normal((60, 3))
        errors = discrete_max_error(u_h, ref)
        assert errors.shape == (3,)
        assert errors.tolist() == [discrete_max_error(u_h[:, m], ref[:, m])
                                   for m in range(3)]
        ref[:, 1] = 0.0
        with pytest.raises(NonpositiveError):
            discrete_max_error(u_h, ref)


class TestSamplePoints:
    def test_layer_mesh_coverage(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-4, beta=1.0, p=3,
                                   n_elements=16, kind="exp"))
        pts = sample_points(mesh)
        t = mesh.transition_left()
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert np.all(np.isin(mesh.nodes, pts))
        # each region really gets its share of points
        assert np.sum(pts <= t) >= SAMPLES_PER_REGION
        assert np.sum((pts >= t) & (pts <= 1 - t)) >= SAMPLES_PER_REGION
        assert np.sum(pts >= 1 - t) >= SAMPLES_PER_REGION

    def test_uniform_mesh_single_sweep(self):
        mesh = build_mesh(MeshSpec(epsilon=0.5, beta=1.0, p=3,
                                   n_elements=10, kind="uniform"))
        pts = sample_points(mesh)
        assert len(pts) >= 3 * SAMPLES_PER_REGION
        assert np.all(np.diff(pts) > 0.0)


class TestFitSlope:
    def test_exact_power_law(self):
        ns = np.array([4.0, 8.0, 16.0, 32.0])
        fit = fit_slope(ns, 3.0 * ns**-4)
        assert fit.slope == pytest.approx(4.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
        assert fit.max_log_residual < 1e-12

    def test_needs_two_points(self):
        with pytest.raises(TooFewPoints):
            fit_slope([8.0], [1.0])

    def test_needs_two_distinct_sizes(self):
        with pytest.raises(TooFewPoints, match="distinct"):
            fit_slope([8.0, 8.0, 8.0], [1.0, 0.5, 0.25])

    def test_matches_polyfit(self):
        # the closed form against numpy's least-squares solve
        rng = np.random.default_rng(3)
        ns = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
        errors = ns ** -4.1 * np.exp(rng.normal(0.0, 0.2, len(ns)))
        fit = fit_slope(ns, errors)
        coef = np.polyfit(np.log(ns), np.log(errors), 1)
        resid = np.log(errors) - np.polyval(coef, np.log(ns))
        assert fit.slope == pytest.approx(-coef[0], rel=1e-13)
        assert fit.intercept == pytest.approx(coef[1], rel=1e-13)
        assert fit.max_log_residual == pytest.approx(np.abs(resid).max(),
                                                     rel=1e-12)

    def test_length_mismatch(self):
        # unequal lengths are a shape fault (exit 9), whatever the counts
        for ns, errors in (([8.0, 16.0], [1.0]), ([8.0], [1.0, 0.5]),
                           ([8.0, 16.0, 32.0], [1.0, 0.5])):
            with pytest.raises(DimensionMismatch,
                               match="mismatched lengths") as info:
                fit_slope(ns, errors)
            assert info.value.exit_code == 9

    def test_positive_errors_required(self):
        with pytest.raises(NonpositiveError):
            fit_slope([8.0, 16.0], [1.0, 0.0])


class TestInterpRateStudy:
    def test_layer_regime_enforced(self):
        with pytest.raises(AssumptionViolated):
            interp_rate_study("exp", 0.1, 1.0, 3, (16, 32))

    def test_orders_match_standalone_measurement(self):
        # Fitted orders for the layer exponential at eps=1e-6 on the
        # graded mesh, pinned against an independent scalar-arithmetic
        # implementation of the same three metrics.
        rep = interp_rate_study("exp", 1e-6, 1.0, 3, (16, 32, 64, 128))
        assert rep.order("max_err").slope == pytest.approx(4.909, abs=0.02)
        assert rep.order("max_err_d1").slope == pytest.approx(2.960, abs=0.02)
        assert rep.order("scaled_h2_err").slope == pytest.approx(1.995,
                                                                 abs=0.02)

    def test_errors_decrease(self):
        rep = interp_rate_study("exp", 1e-6, 1.0, 3, (16, 32, 64))
        for metric in ("max_err", "max_err_d1", "scaled_h2_err"):
            _, vals = rep.series(metric)
            assert np.all(np.diff(vals) < 0.0)

    # sizes below one block, at a multiple of it and between multiples;
    # multiples of 4, as the layer meshes need, for a block that is one
    BLOCK = hermevp.analysis.INTERP_BLOCK
    BLOCKED_NS = (BLOCK - 4, 2 * BLOCK, 2 * BLOCK + 8)

    @pytest.mark.parametrize("kind", ["exp", "shishkin", "uniform"])
    @pytest.mark.parametrize("p", [3, 5, 6])
    def test_blocked_sup_errors_match_one_pass_sweep(self, kind, p,
                                                     monkeypatch):
        eps = 1e-6
        swept = []
        call = PiecewiseFunction.__call__

        def spy(self, x, deriv=0):
            if deriv == (0, 1):
                swept.append(np.array(x))
            return call(self, x, deriv)

        monkeypatch.setattr(PiecewiseFunction, "__call__", spy)
        rep = interp_rate_study(kind, eps, 1.0, p, self.BLOCKED_NS)
        # the blocks, in order, sweep the one-pass points and no others
        expected_points = np.concatenate([
            sweep_points(build_mesh(MeshSpec(epsilon=eps, beta=1.0, p=p,
                                             n_elements=n, kind=kind)))
            for n in self.BLOCKED_NS])
        assert np.array_equal(np.concatenate(swept), expected_points)
        for record in rep.records:
            expected = one_pass_sup_errors(kind, eps, 1.0, p, record.N)
            got = (record.max_err, record.max_err_d1)
            assert [v.hex() for v in got] == [v.hex() for v in expected], \
                record.N

    def test_sweep_memory_is_below_one_column_of_a_full_sweep(self):
        # the bound, fixed before measuring: one float column of the
        # INTERP_SAMPLES * N points a one-pass sweep would hold
        n = 8192
        bound = 200 * n * 8
        tracemalloc.start()
        try:
            interp_rate_study("exp", 1e-8, 1.0, 3, [n])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"traced peak {peak} bytes, bound {bound}"


class TestReference:
    def test_default_reference_size(self):
        assert default_reference_n([16, 32]) == 512
        assert default_reference_n([128]) == 1024

    def test_reference_solution_contents(self):
        coeffs = CoefficientSet(a=lambda x: np.ones_like(x),
                                b=lambda x: np.zeros_like(x))
        ref = compute_reference(exp_spec(1e-2, 64), coeffs, SolverConfig(k=2))
        assert ref.mesh.n_elements == 64
        assert ref.function.node_values.shape == (65, 2)
        assert ref.spectrum.eigenvalues.shape == (2,)


def exp_spec(epsilon, n):
    return MeshSpec(epsilon=epsilon, beta=1.0, p=3, n_elements=n, kind="exp")


@pytest.fixture(scope="module")
def study():
    coeffs = CoefficientSet(a=np.exp, b=lambda x: x)
    return convergence_study(exp_spec(1e-2, 64), (8, 12, 16), coeffs,
                             SolverConfig(k=2))


class TestConvergenceStudy:
    def test_record_grid(self, study):
        assert len(study.records) == 6
        assert study.modes() == [1, 2]
        for r in study.records:
            assert r.dof == 2 * (r.N - 1)
            assert r.mesh_kind == "exp"

    def test_errors_decrease_with_refinement(self, study):
        for mode in (1, 2):
            dofs, errs = study.series(mode, "lambda_err_pct")
            assert dofs == [14, 22, 30]
            assert np.all(np.diff(errs) < 0.0)

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

    def test_json_payload(self, tmp_path):
        assert main(["convergence", "--epsilon", "1e-2", "--n", "8,12,16",
                     "--modes", "2", "--ref-n", "64",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "study_eps0.01.json").read_text())
        assert set(payload) == {"records", "slopes"}
        assert len(payload["records"]) == 6
        assert payload["records"][0]["mode"] == 1
        assert tuple(payload["records"][0]) == CSV_COLUMNS
        with open(tmp_path / "study_eps0.01.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["lambda_h"]) for r in rows] == \
            [r["lambda_h"] for r in payload["records"]]
        assert {b["vs"] for blocks in payload["slopes"].values()
                for b in blocks.values()} == {"dof"}

    def test_slope_blocks_skip_a_zero_error(self):
        # mode 2's eigenvalue error reads 0 on one rung, so the fit refuses
        # that series and the blocks leave it out
        records = [StudyRecord("exp", 1e-2, 3, n, dof, mode, 10.0,
                               0.0 if (n, mode) == (16, 2) else 1.0 / dof,
                               1.0 / dof, 1.0 / dof, 1.0 / dof)
                   for n, dof in ((8, 14), (16, 30), (32, 62))
                   for mode in (1, 2)]
        blocks = StudyReport(records=tuple(records)).slope_blocks()
        assert set(blocks) == set(ERROR_METRICS)
        assert set(blocks["lambda_err_pct"]) == {"1"}
        assert set(blocks["energy_err_pct"]) == {"1", "2"}
        assert blocks["lambda_err_pct"]["1"]["slope"] == pytest.approx(1.0)

    @pytest.mark.parametrize("ladder,ref_n", [("8,12,16", 512),
                                              ("16,32,72", 576)])
    def test_default_reference_size_in_cli(self, tmp_path, monkeypatch,
                                           ladder, ref_n):
        sizes = []
        compute = hermevp.analysis.compute_reference

        def spy(spec, coeffs, config):
            sizes.append(spec.n_elements)
            return compute(spec, coeffs, config)

        monkeypatch.setattr(hermevp.analysis, "compute_reference", spy)
        assert main(["convergence", "--epsilon", "1e-2", "--n", ladder,
                     "--out", str(tmp_path)]) == 0
        assert sizes == [ref_n]

    def test_failed_rung_keeps_earlier_rows(self, tmp_path, capsys,
                                            monkeypatch):
        calls = []
        solve = hermevp.analysis.solve_smallest

        def fail_third(*args, **kwargs):
            # the reference is the first solve, so rung 2 is the third
            calls.append(None)
            if len(calls) == 3:
                raise NoConvergence("stub solver gave up on rung 2")
            return solve(*args, **kwargs)

        monkeypatch.setattr(hermevp.analysis, "solve_smallest", fail_third)
        rc = main(["convergence", "--epsilon", "1e-2", "--n", "8,12,16",
                   "--ref-n", "48", "--out", str(tmp_path)])
        _, err = capsys.readouterr()
        assert rc == NoConvergence.exit_code
        lines = (tmp_path / "study_eps0.01.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "8"
        assert lines[2] == "# FAILED: stub solver gave up on rung 2"
        assert not (tmp_path / "study_eps0.01.json").exists()
        assert err.splitlines() == [
            f"epsilon=0.01: failed after 1 of 3 records "
            f"({tmp_path / 'study_eps0.01.csv'}): stub solver gave up on "
            f"rung 2",
            "error: NoConvergence: stub solver gave up on rung 2"]

    def test_on_record_streams_every_row(self):
        seen = []
        coeffs = CoefficientSet(a=lambda x: np.ones_like(x),
                                b=lambda x: np.zeros_like(x))
        convergence_study(exp_spec(1e-2, 32), (8, 12), coeffs,
                          SolverConfig(k=1), on_record=seen.append)
        assert [r.N for r in seen] == [8, 12]

    @pytest.mark.parametrize("spec,ladder,config,error,message", [
        (MeshSpec(1e-2, 1.0, 3, 512, "uniform"), (8, 12, 16),
         SolverConfig(k=20), KTooLarge,
         "asked for 20 modes, but the mesh with N=8 has 14 dofs"),
        (MeshSpec(1e-2, 1.0, 3, 32, "uniform"), (16, 32, 64),
         SolverConfig(k=1), InvalidSpec,
         "the reference mesh size 32 must exceed the largest mesh size 64"),
    ], ids=["too-many-modes", "reference-not-finer"])
    def test_unscorable_study_refused_before_any_solve(
            self, monkeypatch, spec, ladder, config, error, message):
        # a mode count the smallest rung cannot hold, or a reference no
        # finer than a rung (which would score that rung 0.0), is refused
        # before the reference solve
        def no_solve(*args):
            raise AssertionError("solved before the refusal")

        monkeypatch.setattr(hermevp.analysis, "solve_smallest", no_solve)
        coeffs = CoefficientSet(a=np.exp, b=lambda x: x)
        with pytest.raises(error, match=message):
            convergence_study(spec, ladder, coeffs, config)

    def test_eigenfunction_sup_norm_orders(self):
        # Pointwise rates observed for the first mode at eps=1e-3; the
        # value error tracks h^p+ and the slope error h^{p-1}+, so the
        # fitted orders must land in generous windows around 4 and 3.
        coeffs = CoefficientSet(a=np.exp, b=lambda x: x)
        study = convergence_study(exp_spec(1e-3, 512), (16, 32, 64), coeffs,
                                  SolverConfig(k=1))
        u_order = study.order(1, "maxnorm_u_pct").slope
        du_order = study.order(1, "maxnorm_du_pct").slope
        assert 2.5 < u_order < 4.5
        assert 1.5 < du_order < 3.5
