import hashlib
import itertools

import numpy as np
import pytest

from hermevp import (BadGrouping, DimensionMismatch, HermiteData,
                     InvalidSpec, MeshSpec, PiecewiseFunction,
                     build_mesh, gauss_rule, hermite_basis,
                     hermite_interpolant, shape_table)
from hermevp.element import eval_layer_function, piecewise_eval


class TestGaussRule:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_exact_for_polynomials_up_to_degree_2n_minus_1(self, n):
        rule = gauss_rule(n)
        for k in range(2 * n):
            integral = float(rule.weights @ rule.points**k)
            assert integral == pytest.approx(1.0 / (k + 1), rel=1e-14)

    def test_points_inside_unit_interval(self):
        rule = gauss_rule(6)
        assert np.all(rule.points > 0.0) and np.all(rule.points < 1.0)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-15)
        assert rule.n_points == 6

    def test_rejects_nonpositive_count(self):
        with pytest.raises(InvalidSpec):
            gauss_rule(0)
        with pytest.raises(InvalidSpec):
            gauss_rule(0)                   # errors are not cached

    def test_shared_rule_is_read_only(self):
        rule = gauss_rule(7)
        assert gauss_rule(7) is rule
        with pytest.raises(ValueError):
            rule.points[0] = 0.5
        with pytest.raises(ValueError):
            rule.weights[0] = 0.5
        assert np.array_equal(rule.points,
                              0.5 * (np.polynomial.legendre.leggauss(7)[0]
                                     + 1.0))


class TestHermiteBasis:
    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_cardinal_values_and_slopes_at_endpoints(self, p):
        ends = np.array([0.0, 1.0])
        vals = hermite_basis(p, ends, 0)
        d1 = hermite_basis(p, ends, 1)
        expect_vals = np.zeros((p + 1, 2))
        expect_d1 = np.zeros((p + 1, 2))
        expect_vals[0, 0] = 1.0
        expect_d1[1, 0] = 1.0
        expect_vals[2, 1] = 1.0
        expect_d1[3, 1] = 1.0
        assert np.allclose(vals, expect_vals, atol=1e-14)
        assert np.allclose(d1, expect_d1, atol=1e-14)

    @pytest.mark.parametrize("p", [5, 7])
    def test_bubbles_vanish_to_first_order_at_endpoints(self, p):
        ends = np.array([0.0, 1.0])
        vals = hermite_basis(p, ends, 0)
        d1 = hermite_basis(p, ends, 1)
        assert np.max(np.abs(vals[4:])) < 1e-13
        assert np.max(np.abs(d1[4:])) < 1e-13

    def test_value_shapes_partition_unity(self):
        s = np.linspace(0.0, 1.0, 33)
        vals = hermite_basis(3, s, 0)
        assert np.allclose(vals[0] + vals[2], 1.0, atol=1e-14)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("deriv", [1, 2])
    def test_derivatives_match_finite_differences(self, p, deriv):
        rng = np.random.default_rng(421)
        s = rng.uniform(0.05, 0.95, size=24)
        h = 1e-6
        lower = hermite_basis(p, s - h, deriv - 1)
        upper = hermite_basis(p, s + h, deriv - 1)
        fd = (upper - lower) / (2.0 * h)
        exact = hermite_basis(p, s, deriv)
        assert np.allclose(fd, exact, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("p", [3, 6])
    @pytest.mark.parametrize("deriv", [0, 1, 2])
    def test_c_contiguous_shape_by_point(self, p, deriv):
        # ShapeTable.k2 and m0 are GEMMs on this array; another layout
        # could change their rounding
        s = gauss_rule(2 * p).points
        out = hermite_basis(p, s, deriv)
        assert out.shape == (p + 1, len(s)) and out.flags.c_contiguous

    def test_degree_below_three_rejected(self):
        with pytest.raises(InvalidSpec, match="need degree >= 3, got 2"):
            hermite_basis(2, np.array([0.5]))

    def test_negative_derivative_order_rejected(self):
        with pytest.raises(InvalidSpec):
            hermite_basis(3, np.array([0.5]), deriv=-1)

    def test_basis_spans_monomials(self):
        # A degree-p basis on [0, 1] must reproduce every monomial s^k.
        p = 5
        s = np.linspace(0.0, 1.0, p + 1)
        vals = hermite_basis(p, s, 0)
        for k in range(p + 1):
            coef, *_ = np.linalg.lstsq(vals.T, s**k, rcond=None)
            assert np.allclose(vals.T @ coef, s**k, atol=1e-12)


class TestShapeTable:
    def test_default_rule_has_two_p_points(self):
        table = shape_table(4)
        assert table.rule.n_points == 8
        assert table.values.shape == (5, 8)
        assert table.d1.shape == table.d2.shape == table.values.shape

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_default_table_is_one_read_only_table_per_p(self, p):
        table = shape_table(p)
        assert shape_table(p) is table
        assert shape_table(p + 1) is not table
        for arr in (table.values, table.d1, table.d2, table.k2, table.m0):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            table.values[0, 0] = 1.0

    @pytest.mark.parametrize("p", [3, 5])
    def test_coefficient_free_integrals(self, p):
        table = shape_table(p)
        w = table.rule.weights
        assert np.array_equal(table.k2, (table.d2 * w) @ table.d2.T)
        assert np.array_equal(table.m0, (table.values * w) @ table.values.T)


class TestShapeDigest:
    # sha256 over the little-endian bytes of shape_table(p)'s values, d1
    # and d2, and of hermite_basis(p, S, d) for d = 0..3.  The values
    # equal a Horner evaluation over nppoly.polyder tables of the shapes;
    # any entry that moves by one rounding shows here.
    S = np.linspace(0.0, 1.0, 101)
    TABLE_DIGESTS = {
        3: "081b3ed5fc4e13c6755dd07b0451e83ccd22225bb8367bf9580942380c60a967",
        4: "1c9e49f1a26c9f449c80afd2a360dafd221782233179b59f3a88d99c1d2c3326",
        5: "a34f1458b13ba56df7920f241a459c44e653e130a321f858c1e78ea6f41eabba",
        6: "d2d3eacb9ea8ea0827dfc49eb8c22745c4f04e9c71e366363402bbb86ba533d2",
        7: "9182bd070afa6e45f4073713a39b45ccfd252a097210292fdd6b33a12a4bf91f",
        8: "7ac63d6455094870be14c2ebce5ba91ac19392ccfa64e8d95333e24aa74a5aad",
    }
    BASIS_DIGESTS = {
        3: "0e9488e6ddadefcdf49e20933efde3e901bc16a4e6763f4c52837a36ca2b5506",
        4: "89601102bda16806b07570e8e6807ff61229821bbc12dc610a70433782b55d01",
        5: "27097f744e98390ec03e7e02cd7ec3ed72a8ef9769e2494fde226cbf4384cd12",
        6: "9bec0f3006a7e9b416e756ad86dd89cc09f3b03261ac56231a685664db65240a",
        7: "7c622d4540a3be2c1ecd64d5df41b680e3df6a3260b1ac386cb6ba55b442412d",
        8: "41e7f80aecb1c8e15ac27312ef4eaf115b6c8a8cc0cebd3a61b5c56702024b75",
    }

    @staticmethod
    def digest(arrays) -> str:
        sha = hashlib.sha256()
        for a in arrays:
            sha.update(a.astype("<f8").tobytes())
        return sha.hexdigest()

    @pytest.mark.parametrize("p", sorted(TABLE_DIGESTS))
    def test_shape_table_digest(self, p):
        t = shape_table(p)
        assert self.digest((t.values, t.d1, t.d2)) == self.TABLE_DIGESTS[p]

    @pytest.mark.parametrize("p", sorted(BASIS_DIGESTS))
    def test_hermite_basis_digest(self, p):
        assert self.digest(hermite_basis(p, self.S, d)
                           for d in range(4)) == self.BASIS_DIGESTS[p]


class TestHermiteData:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            HermiteData(nodes=[0.0, 1.0], values=[0.0, 1.0], slopes=[0.0])

    def test_nodes_must_increase(self):
        with pytest.raises(InvalidSpec):
            HermiteData(nodes=[0.0, 0.5, 0.5], values=[0.0] * 3,
                        slopes=[0.0] * 3)

    def test_needs_two_nodes(self):
        with pytest.raises(InvalidSpec):
            HermiteData(nodes=[0.0], values=[1.0], slopes=[0.0])


class TestPiecewiseFunction:
    def test_evaluation_and_derivative_scaling(self):
        # One piece on [0, 2] holding t^2 in the local coordinate t = x/2.
        f = PiecewiseFunction(np.array([0.0, 2.0]), np.array([[0.0, 0.0, 1.0]]))
        assert f(1.0)[0] == pytest.approx(0.25, rel=1e-15)
        assert f(1.0, deriv=1)[0] == pytest.approx(0.5, rel=1e-15)
        assert f(1.0, deriv=2)[0] == pytest.approx(0.5, rel=1e-15)

    def test_break_count_checked(self):
        with pytest.raises(DimensionMismatch):
            PiecewiseFunction(np.array([0.0, 1.0]), np.zeros((2, 3)))

    def test_points_outside_clamp_to_end_pieces(self):
        f = PiecewiseFunction(np.array([0.0, 1.0, 2.0]),
                              np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert f(2.0)[0] == pytest.approx(2.0, rel=1e-15)
        assert f(0.0)[0] == 0.0

    def test_orders_above_degree_are_zero(self):
        f = PiecewiseFunction(np.array([0.0, 1.0, 3.0]),
                              np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        x = np.array([0.25, 1.0, 2.5])
        assert np.array_equal(f(x, deriv=3), np.zeros(3))
        assert np.array_equal(f(x, deriv=7), np.zeros(3))
        # the top order is constant per piece: 2 c_2 / h^2
        assert np.array_equal(f(x, deriv=2), [6.0, 3.0, 3.0])

    def test_negative_order_rejected(self):
        f = PiecewiseFunction(np.array([0.0, 2.0]), np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(InvalidSpec):
            f(1.0, deriv=-1)


class TestPiecewiseEvalModes:
    """coeffs with a trailing mode axis evaluate every mode in one pass,
    each equal bit for bit to its own single-mode call."""

    @staticmethod
    def problem(p, n_modes=3, seed=0):
        rng = np.random.default_rng(seed)
        breaks = np.cumsum(np.concatenate([[0.0], rng.random(9) + 1e-3]))
        breaks /= breaks[-1]
        coeffs = rng.standard_normal((9, p + 1, n_modes))
        x = np.concatenate([breaks, rng.random(300), [1.0, 1.0, -0.5, 1.5]])
        return breaks, coeffs, x

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    @pytest.mark.parametrize("deriv", [0, 2, (0, 1, 2), (3, 0)],
                             ids=str)
    def test_each_mode_equals_single_mode_call(self, p, deriv):
        breaks, coeffs, x = self.problem(p)
        out = piecewise_eval(breaks, coeffs, x, deriv)
        n_orders = () if np.ndim(deriv) == 0 else (len(deriv),)
        assert out.shape == (len(x),) + n_orders + (coeffs.shape[2],)
        for m in range(coeffs.shape[2]):
            single = piecewise_eval(breaks, np.ascontiguousarray(
                coeffs[:, :, m]), x, deriv)
            assert np.array_equal(out[..., m], single)

    @pytest.mark.parametrize("p", [3, 6])
    def test_local_coordinates_per_mode(self, p):
        breaks, coeffs, _ = self.problem(p, seed=1)
        rng = np.random.default_rng(2)
        piece = rng.integers(0, len(breaks) - 1, 200)
        t = np.concatenate([rng.random(198), [0.0, 1.0]])
        out = piecewise_eval(breaks, coeffs, t, (0, 1, 2), piece=piece)
        for m in range(coeffs.shape[2]):
            single = piecewise_eval(breaks, np.ascontiguousarray(
                coeffs[:, :, m]), t, (0, 1, 2), piece=piece)
            assert np.array_equal(out[..., m], single)


class TestHermiteInterpolant:
    def test_reproduces_cubic_exactly(self):
        x = np.linspace(0.0, 1.0, 5)
        data = HermiteData(nodes=x,
                           values=2 * x**3 - x**2 + 3 * x - 1,
                           slopes=6 * x**2 - 2 * x + 3)
        f = hermite_interpolant(data, n=1)
        xs = np.linspace(0.0, 1.0, 401)
        exact = 2 * xs**3 - xs**2 + 3 * xs - 1
        assert np.max(np.abs(f(xs) - exact)) < 1e-13
        dexact = 6 * xs**2 - 2 * xs + 3
        assert np.max(np.abs(f(xs, deriv=1) - dexact)) < 1e-11

    def test_reproduces_quintic_with_pairs_of_intervals(self):
        x = np.linspace(0.0, 1.0, 5)
        data = HermiteData(nodes=x,
                           values=x**5 - 2 * x**4 + x - 3,
                           slopes=5 * x**4 - 8 * x**3 + 1)
        f = hermite_interpolant(data, n=2)
        xs = np.linspace(0.0, 1.0, 401)
        exact = xs**5 - 2 * xs**4 + xs - 3
        assert np.max(np.abs(f(xs) - exact)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reproduces_degree_2n_plus_1_on_graded_nodes(self, n):
        # 12 intervals whose widths grow by 1.5 from left to right, so
        # every group has unequal widths and any group size up to 4
        # divides them.  The power-basis build cancels terms of size
        # about 10^(2n-2), so the bound grows with n.
        widths = 1.5 ** np.arange(12)
        x = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
        coef = np.random.default_rng(n).uniform(-1.0, 1.0, 2 * n + 2)
        dcoef = np.polynomial.polynomial.polyder(coef)
        poly = np.polynomial.polynomial.polyval
        f = hermite_interpolant(
            HermiteData(nodes=x, values=poly(x, coef), slopes=poly(x, dcoef)),
            n=n)
        xs = np.linspace(0.0, 1.0, 997)
        tol = 1e-14 * 100.0 ** (n - 1)
        assert np.max(np.abs(f(xs) - poly(xs, coef))) < tol
        assert np.max(np.abs(f(xs, deriv=1) - poly(xs, dcoef))) < 100.0 * tol

    def test_grouping_must_divide_interval_count(self):
        x = np.linspace(0.0, 1.0, 5)
        data = HermiteData(nodes=x, values=np.sin(x), slopes=np.cos(x))
        with pytest.raises(BadGrouping):
            hermite_interpolant(data, n=3)

    def test_group_size_positive(self):
        x = np.linspace(0.0, 1.0, 5)
        data = HermiteData(nodes=x, values=np.sin(x), slopes=np.cos(x))
        with pytest.raises(InvalidSpec):
            hermite_interpolant(data, n=0)

    def test_smooth_function_rates_on_uniform_grids(self):
        # Cubic Hermite interpolation of sin(pi x): errors should shrink
        # like n^-4 (values) and n^-3 (first derivative).
        xs = np.linspace(0.0, 1.0, 2001)
        ns = np.array([4, 8, 16, 32, 64])
        e0, e1 = [], []
        for n in ns:
            x = np.linspace(0.0, 1.0, n + 1)
            data = HermiteData(nodes=x, values=np.sin(np.pi * x),
                               slopes=np.pi * np.cos(np.pi * x))
            f = hermite_interpolant(data, n=1)
            e0.append(np.max(np.abs(f(xs) - np.sin(np.pi * xs))))
            e1.append(np.max(np.abs(f(xs, deriv=1)
                                    - np.pi * np.cos(np.pi * xs))))
        slope0 = -np.polyfit(np.log(ns), np.log(e0), 1)[0]
        slope1 = -np.polyfit(np.log(ns), np.log(e1), 1)[0]
        assert abs(slope0 - 4.0) < 0.2
        assert abs(slope1 - 3.0) < 0.2


class TestInterpolantDigest:
    # sha256 over the little-endian breaks and coefficient bytes of the
    # layer function's interpolant, built as interp_rate_study builds it
    # (group (p-1)//2, beta = 1), on every mesh of the grid in product
    # order; sizes the group does not divide are skipped.  Any coefficient
    # that moves shows here.  The values depend on the platform's exp and
    # log being bit-reproducible.
    GRID = ((1e-3, 1e-5, 1e-8), (3, 4, 5, 6),
            (16, 32, 48, 64, 96, 128, 256))
    GOLDEN_DIGESTS = {
        "exp": "dbc3f2cc7696822205ed951cf3e4722dd5f722e573b58a87dfdc18e5e8acb3ef",
        "shishkin": "b5a473bf07a196a08896e0e7546e83e58a3e0f828b58031c74de9e0ed8e6e1c4",
        "uniform": "c950b4c7eb0a84061eb10b18215ee0ad5f63473fe0d04a4ae9d0536748e1c916",
    }

    @pytest.mark.parametrize("kind", sorted(GOLDEN_DIGESTS))
    def test_golden_coefficient_digest(self, kind):
        sha = hashlib.sha256()
        for eps, p, n in itertools.product(*self.GRID):
            group = (p - 1) // 2
            if n % group:
                continue
            nodes = build_mesh(MeshSpec(epsilon=eps, beta=1.0, p=p,
                                        n_elements=n, kind=kind)).nodes
            f = hermite_interpolant(HermiteData(
                nodes=nodes, values=eval_layer_function(nodes, eps, 1.0),
                slopes=eval_layer_function(nodes, eps, 1.0, deriv=1)), group)
            sha.update(f.breaks.astype("<f8").tobytes())
            sha.update(f.coeffs.astype("<f8").tobytes())
        assert sha.hexdigest() == self.GOLDEN_DIGESTS[kind]


class TestLayerFunction:
    def test_left_layer_values(self):
        x = np.array([0.0, 0.5, 1.0])
        values = eval_layer_function(x, epsilon=0.1, beta=2.0)
        assert np.allclose(values, np.exp(-20.0 * x), rtol=1e-15)

    def test_derivative_prefactors(self):
        x = np.array([0.3])
        rate = 5.0 / 0.25
        d1 = eval_layer_function(x, 0.25, 5.0, deriv=1)
        d2 = eval_layer_function(x, 0.25, 5.0, deriv=2)
        assert d1[0] == pytest.approx(-rate * np.exp(-rate * 0.3), rel=1e-14)
        assert d2[0] == pytest.approx(rate**2 * np.exp(-rate * 0.3), rel=1e-14)

    def test_tuple_of_orders_matches_single_calls(self):
        x = np.linspace(0.0, 1.0, 7)
        cols = eval_layer_function(x, 0.1, 2.0, deriv=(0, 1, 2))
        assert cols.shape == (7, 3)
        for k in range(3):
            single = eval_layer_function(x, 0.1, 2.0, deriv=k)
            assert cols[:, k].tobytes() == single.tobytes()

    def test_bad_arguments(self):
        with pytest.raises(InvalidSpec):
            eval_layer_function(np.array([0.5]), 0.0, 1.0)
        with pytest.raises(InvalidSpec):
            eval_layer_function(np.array([0.5]), 0.1, -1.0)
