import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from hermevp import (CoefficientSet, CoefficientViolation, DimensionMismatch,
                     FEFunction, InvalidSpec, MeshSpec, Space, SymBandMatrix,
                     assemble, build_mesh, element_matrices, gauss_rule,
                     shape_table)
from oracle import to_dense


def symbolic_shape_functions(p):
    """The reference basis rebuilt with exact arithmetic."""
    s = sp.Symbol("s")
    shapes = [
        1 - 3 * s**2 + 2 * s**3,
        s * (1 - s) ** 2,
        3 * s**2 - 2 * s**3,
        s**2 * (s - 1),
    ]
    for m in range(p - 3):
        shapes.append(s**2 * (1 - s) ** 2 * sp.legendre(m, 2 * s - 1))
    return s, shapes


def symbolic_element_matrices(p, deriv):
    s, shapes = symbolic_shape_functions(p)
    mat = np.empty((p + 1, p + 1))
    for i in range(p + 1):
        for j in range(i, p + 1):
            fi = sp.diff(shapes[i], s, deriv)
            fj = sp.diff(shapes[j], s, deriv)
            val = sp.integrate(sp.expand(fi * fj), (s, 0, 1))
            mat[i, j] = mat[j, i] = float(val)
    return mat


def uniform_space(n, p):
    """The degree-p space on the uniform mesh of n elements."""
    return Space(build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                     n_elements=n, kind="uniform")), p)


def every_pair(p):
    """All (p+1)^2 local (row, column) pairs, row-major."""
    return np.indices((p + 1, p + 1)).reshape(2, -1)


def one_element(h, shapes, epsilon, a, b):
    """The full local matrices of one element of width h with constant a
    and b: element_matrices over every pair, as a batch of one."""
    p = shapes.p
    row = np.ones((1, shapes.rule.n_points))
    k_el, m_el = element_matrices(np.array([h]), shapes, epsilon, a * row,
                                  b * row, every_pair(p))
    return k_el[0].reshape(p + 1, p + 1), m_el[0].reshape(p + 1, p + 1)


class TestElementMatricesAgainstExactIntegrals:
    """Each bilinear-form term in isolation versus exact symbolic
    integration of the reference basis, including the width scaling of
    the slope dofs."""

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_second_derivative_term(self, p, h):
        shapes = shape_table(p)
        k_loc, _ = one_element(h, shapes, epsilon=1.0, a=0.0, b=0.0)
        d = np.ones(p + 1)
        d[1] = d[3] = h
        expect = symbolic_element_matrices(p, 2) / h**3 * np.outer(d, d)
        assert np.max(np.abs(k_loc - expect)) < 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_first_derivative_term(self, p, h):
        shapes = shape_table(p)
        k_loc, _ = one_element(h, shapes, epsilon=0.0, a=1.0, b=0.0)
        d = np.ones(p + 1)
        d[1] = d[3] = h
        expect = symbolic_element_matrices(p, 1) / h * np.outer(d, d)
        assert np.max(np.abs(k_loc - expect)) < 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_mass_term(self, p, h):
        shapes = shape_table(p)
        k_loc, m_loc = one_element(h, shapes, epsilon=0.0, a=0.0, b=1.0)
        d = np.ones(p + 1)
        d[1] = d[3] = h
        expect = symbolic_element_matrices(p, 0) * h * np.outer(d, d)
        assert np.max(np.abs(m_loc - expect)) < 1e-12 * np.max(np.abs(expect))
        assert np.max(np.abs(k_loc - expect)) < 1e-12 * np.max(np.abs(expect))


class TestBatchedElementMatrices:
    @pytest.mark.parametrize("p", [3, 5])
    def test_batch_equals_scalar_calls_stacked(self, p):
        shapes = shape_table(p)
        rng = np.random.default_rng(p)
        h = rng.uniform(1e-6, 0.5, size=7)
        a = rng.uniform(1.0, 3.0, size=(7, shapes.rule.n_points))
        b = rng.uniform(0.0, 2.0, size=(7, shapes.rule.n_points))
        kept = uniform_space(7, p).pairs
        k_el, m_el = element_matrices(h, shapes, 1e-3, a, b, kept)
        assert k_el.shape == m_el.shape == (7, (p + 1) * (p + 2) // 2)
        # each element alone, as a batch of one
        singles = [element_matrices(h[e:e + 1], shapes, 1e-3, a[e:e + 1],
                                    b[e:e + 1], kept) for e in range(7)]
        assert np.array_equal(k_el, np.concatenate([k for k, _ in singles]))
        assert np.array_equal(m_el, np.concatenate([m for _, m in singles]))

    @pytest.mark.parametrize("p", [3, 5])
    def test_kept_pairs_equal_full_matrix_entries(self, p):
        # the band's triangle is a selection of the full local matrices,
        # bit for bit; the mirrored entries need not be, which is why the
        # pairs keep the band's orientation
        shapes = shape_table(p)
        rng = np.random.default_rng(10 + p)
        h = rng.uniform(1e-6, 0.5, size=5)
        a = rng.uniform(1.0, 3.0, size=(5, shapes.rule.n_points))
        b = rng.uniform(0.0, 2.0, size=(5, shapes.rule.n_points))
        i, j = kept = uniform_space(5, p).pairs
        k_full, m_full = element_matrices(h, shapes, 1e-3, a, b,
                                          every_pair(p))
        k_el, m_el = element_matrices(h, shapes, 1e-3, a, b, kept)
        k_full = k_full.reshape(5, p + 1, p + 1)
        m_full = m_full.reshape(5, p + 1, p + 1)
        assert np.array_equal(k_el, k_full[:, i, j])
        assert np.array_equal(m_el, m_full[:, i, j])


class TestDofMap:
    """A Space's free-dof numbering, which depends on N and the degree
    alone."""

    def test_cubic_map_on_four_elements(self):
        dm = uniform_space(4, 3)
        assert dm.n_free == 6
        assert dm.bandwidth == 3
        expect = np.array([[-1, -1, 0, 1],
                           [0, 1, 2, 3],
                           [2, 3, 4, 5],
                           [4, 5, -1, -1]])
        assert np.array_equal(dm.element_dofs, expect)
        # interior node values and slopes, read off each element's left node
        assert np.array_equal(dm.element_dofs[1:, 0], [0, 2, 4])
        assert np.array_equal(dm.element_dofs[1:, 1], [1, 3, 5])

    def test_quintic_map_counts_and_bandwidth(self):
        dm = uniform_space(4, 5)
        assert dm.n_free == 2 * 3 + 4 * 2
        assert dm.bandwidth == 5
        free = dm.element_dofs[dm.element_dofs >= 0]
        assert set(free.tolist()) == set(range(dm.n_free))

    @pytest.mark.parametrize("p", [3, 4, 5, 8])
    def test_pairs_are_the_band_triangle(self, p):
        # on every element the pairs hit each free (row <= column) entry
        # of the local matrix once, in row-major order
        dm = uniform_space(6, p)
        i, j = dm.pairs
        assert len(i) == (p + 1) * (p + 2) // 2
        assert np.all(np.diff(i * (p + 1) + j) > 0)
        for dofs in dm.element_dofs:
            free = np.nonzero(dofs >= 0)[0]
            upper = {(a, b) for a in free for b in free
                     if dofs[a] <= dofs[b]}
            kept = {(a, b) for a, b in zip(i, j)
                    if dofs[a] >= 0 and dofs[b] >= 0}
            assert kept == upper

    @pytest.mark.parametrize("n,p", [(8, 3), (8, 4), (16, 5), (6, 6)])
    def test_free_count_formula(self, n, p):
        dm = uniform_space(n, p)
        assert dm.n_free == 2 * (n - 1) + n * (p - 3)
        assert dm.bandwidth == p
        # interior node i's (value, slope) pair is (p-3) + (i-1)(p-1) and
        # the next dof, and element e's bubbles start at e(p-1)
        node = [-1] + [(p - 3) + (i - 1) * (p - 1) for i in range(1, n)]
        expect = [[node[e], node[e] + 1 if e else -1]
                  + ([node[e + 1], node[e + 1] + 1] if e + 1 < n
                     else [-1, -1])
                  + [e * (p - 1) + m for m in range(p - 3)]
                  for e in range(n)]
        assert np.array_equal(dm.element_dofs, expect)

    def test_degree_checked(self):
        with pytest.raises(InvalidSpec):
            uniform_space(4, 2)


def scatter_one(A, idx, local):
    """Scatter one element's dense local matrix as a batch of one, through
    its upper triangle's pairs (idx ascending over its free entries)."""
    local = np.asarray(local)
    pairs = np.array(np.triu_indices(len(local)))
    A.scatter(A.band_index(np.array([idx]), pairs),
              local[pairs[0], pairs[1]][None])


class TestSymBandMatrix:
    def test_scatter_skips_eliminated_rows(self):
        A = SymBandMatrix(3, 1)
        local = np.array([[2.0, 1.0, 0.5],
                          [1.0, 3.0, 1.5],
                          [0.5, 1.5, 4.0]])
        scatter_one(A, [-1, 0, 1], local)
        dense = to_dense(A)
        expect = np.zeros((3, 3))
        expect[:2, :2] = local[1:, 1:]
        assert np.array_equal(dense, expect)

    def test_scatter_accumulates(self):
        A = SymBandMatrix(4, 2)
        loc = np.full((2, 2), 1.0)
        scatter_one(A, [1, 2], loc)
        scatter_one(A, [1, 2], loc)
        assert to_dense(A)[1, 2] == 2.0
        assert to_dense(A)[2, 1] == 2.0

    def test_batched_scatter_equals_one_at_a_time(self):
        rng = np.random.default_rng(8)
        dm = uniform_space(6, 5)
        local = rng.standard_normal((6, 6, 6))
        local = local + local.transpose(0, 2, 1)
        i, j = dm.pairs
        batched = SymBandMatrix(dm.n_free, dm.bandwidth)
        batched.scatter(batched.band_index(dm.element_dofs, dm.pairs),
                        local[:, i, j])
        single = SymBandMatrix(dm.n_free, dm.bandwidth)
        for e in range(6):
            single.scatter(single.band_index(dm.element_dofs[e:e + 1],
                                             dm.pairs), local[e:e + 1, i, j])
        assert np.array_equal(batched.band, single.band)
        dense = np.zeros((dm.n_free, dm.n_free))
        for dofs, loc in zip(dm.element_dofs, local):
            free = dofs >= 0
            dense[np.ix_(dofs[free], dofs[free])] += loc[np.ix_(free, free)]
        assert np.allclose(to_dense(batched), dense, rtol=0, atol=1e-13)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(7)
        A = SymBandMatrix(9, 3)
        for _ in range(5):
            idx = rng.choice(9, size=4, replace=False)
            idx.sort()
            if idx[-1] - idx[0] > 3:
                continue
            sym = rng.standard_normal((4, 4))
            scatter_one(A, idx, sym + sym.T)
        x = rng.standard_normal(9)
        assert np.allclose(A.matvec(x), to_dense(A) @ x, atol=1e-14)

    def test_matvec_shape_checked(self):
        A = SymBandMatrix(4, 1)
        with pytest.raises(DimensionMismatch):
            A.matvec(np.zeros(5))

    def test_norm_inf(self):
        A = SymBandMatrix(3, 1)
        scatter_one(A, [0, 1], [[1.0, -2.0], [-2.0, 5.0]])
        assert A.norm_inf() == 7.0

    @pytest.mark.parametrize("n,bw", [(1, 0), (5, 0), (9, 3), (40, 5),
                                      (3, 3), (2, 6)])
    def test_norm_inf_matches_dense_on_random_bands(self, n, bw):
        rng = np.random.default_rng(10 * n + bw)
        A = SymBandMatrix(n, bw)
        A.band[:] = rng.standard_normal(A.band.shape)
        expect = np.abs(to_dense(A)).sum(1).max()
        assert A.norm_inf() == pytest.approx(expect, rel=1e-14)

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidSpec):
            SymBandMatrix(0, 1)


def default_coeffs():
    return CoefficientSet(a=np.exp, b=lambda x: x)


class TestAssemble:
    def test_matches_direct_integration_of_bilinear_form(self):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))
        space = Space(mesh, 3)
        K, M = assemble(space, default_coeffs())

        rule = gauss_rule(20)
        xq = (mesh.nodes[:-1, None]
              + mesh.widths[:, None] * rule.points[None, :]).ravel()
        wq = (mesh.widths[:, None] * rule.weights[None, :]).ravel()

        basis_fns = []
        for i in range(space.n_free):
            e = np.zeros(space.n_free)
            e[i] = 1.0
            basis_fns.append(FEFunction.from_dof_vector(space, e))

        n = space.n_free
        K_direct = np.zeros((n, n))
        M_direct = np.zeros((n, n))
        vals = np.array([f(xq) for f in basis_fns])
        d1 = np.array([f(xq, deriv=1) for f in basis_fns])
        d2 = np.array([f(xq, deriv=2) for f in basis_fns])
        a_q = np.exp(xq)
        b_q = xq
        for i in range(n):
            for j in range(n):
                K_direct[i, j] = np.sum(
                    wq * (0.3**2 * d2[i] * d2[j]
                          + a_q * d1[i] * d1[j]
                          + b_q * vals[i] * vals[j]))
                M_direct[i, j] = np.sum(wq * vals[i] * vals[j])

        assert np.allclose(to_dense(K), K_direct, rtol=1e-12, atol=1e-13)
        assert np.allclose(to_dense(M), M_direct, rtol=1e-12, atol=1e-15)

    def test_matrices_positive_definite(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-4, beta=1.0, p=4,
                                   n_elements=16, kind="exp"))
        K, M = assemble(Space(mesh, 4), default_coeffs())
        np.linalg.cholesky(to_dense(K))
        np.linalg.cholesky(to_dense(M))

    def test_a_below_floor_rejected(self):
        # a = x reaches 0 at the probe's first point: refused when the set
        # is made, before any mesh is sampled
        with pytest.raises(CoefficientViolation, match=r"need a > 0\.0$"):
            CoefficientSet(a=lambda x: x, b=lambda x: 0.0 * x)

    def test_negative_b_rejected(self):
        with pytest.raises(CoefficientViolation, match="< 0"):
            CoefficientSet(a=lambda x: 1.0 + 0.0 * x, b=lambda x: x - 0.5)

    def test_quadrature_point_the_probe_missed(self):
        # the probe's points are k/4096 exactly; a dips and b raises only
        # between them, so assemble refuses at its quadrature points
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))

        def on_probe(x):
            return x * 4096.0 == np.round(x * 4096.0)

        dips = CoefficientSet(a=lambda x: np.where(on_probe(x), 1.0, 0.5),
                              b=lambda x: 0.0 * x)
        assert dips.a_floor == 1.0 - 1e-9
        with pytest.raises(CoefficientViolation,
                           match="reaches 0.5 on .0, 1., need a > 0.99999"):
            assemble(Space(mesh, 3), dips)

        def b_raises(x):
            if not np.all(on_probe(x)):
                raise ArithmeticError("off the probe")
            return 0.0 * x

        raises = CoefficientSet(a=np.exp, b=b_raises)
        with pytest.raises(InvalidSpec, match="cannot evaluate a.x. = 'exp' "
                                              "and b.x. = 'b_raises'"):
            assemble(Space(mesh, 3), raises)

    def test_scalar_coefficient_broadcast(self):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))
        lits = CoefficientSet(a=lambda x: 1.0, b=lambda x: 0.0)
        fns = CoefficientSet(a=lambda x: np.ones_like(x),
                             b=lambda x: np.zeros_like(x))
        K1, M1 = assemble(Space(mesh, 3), lits)
        K2, M2 = assemble(Space(mesh, 3), fns)
        assert np.array_equal(K1.band, K2.band)
        assert np.array_equal(M1.band, M2.band)

    def test_coefficient_set_validation(self):
        # each refusal comes when the set is made, from the probe, as for
        # a <= 0 and b < 0 above
        for a, b, error, message in [
            (lambda x: 1 / 0, np.exp, InvalidSpec, "cannot evaluate"),
            (np.log, np.exp, CoefficientViolation,
             "a.x. = 'log' is -inf at x = 0.0, not finite"),
            (np.exp, lambda x: np.sqrt(x - 1.0), CoefficientViolation,
             "is nan at x = 0.0, not finite"),
        ]:
            with pytest.raises(error, match=message):
                CoefficientSet(a=a, b=b)

    def test_a_floor_is_derived(self):
        coeffs = CoefficientSet(a=lambda x: 2.0 + np.sin(8.0 * x), b=np.exp)
        probe = np.linspace(0.0, 1.0, 4097)
        assert coeffs.a_floor == (2.0 + np.sin(8.0 * probe)).min() * (
            1.0 - 1e-9)


class TestFEFunction:
    def make(self):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))
        return Space(mesh, 3)

    def test_dof_vector_unpacking(self):
        space = self.make()
        u = FEFunction.from_dof_vector(space, np.arange(1.0, 7.0))
        assert np.array_equal(u.node_values, [0, 1, 3, 5, 0])
        assert np.array_equal(u.node_slopes, [0, 2, 4, 6, 0])

    def test_interpolation_property_at_nodes(self):
        space = self.make()
        rng = np.random.default_rng(3)
        u = FEFunction.from_dof_vector(space,
                                       rng.standard_normal(space.n_free))
        assert np.allclose(u(space.mesh.nodes), u.node_values, atol=1e-14)
        assert np.allclose(u(space.mesh.nodes, deriv=1), u.node_slopes,
                           atol=1e-13)

    def test_clamped_ends(self):
        space = self.make()
        rng = np.random.default_rng(4)
        u = FEFunction.from_dof_vector(space,
                                       rng.standard_normal(space.n_free))
        for deriv in (0, 1):
            vals = u(np.array([0.0, 1.0]), deriv=deriv)
            assert np.max(np.abs(vals)) < 1e-13

    def test_wrong_vector_length(self):
        space = self.make()
        with pytest.raises(DimensionMismatch):
            FEFunction.from_dof_vector(space, np.zeros(7))

    @pytest.mark.parametrize("p", [3, 4, 7])
    def test_degree_read_off_bubbles(self, p):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))
        u = FEFunction(mesh=mesh, node_values=np.zeros(5),
                       node_slopes=np.zeros(5), bubbles=np.zeros((4, p - 3)))
        assert u.p == p
        assert FEFunction(mesh=mesh, node_values=np.zeros(5),
                          node_slopes=np.zeros(5)).p == 3

    def test_wrong_array_lengths(self):
        with pytest.raises(DimensionMismatch):
            FEFunction(mesh=self.make().mesh, node_values=np.zeros(3),
                       node_slopes=np.zeros(5))

    @pytest.mark.parametrize("name", ["node_values", "node_slopes",
                                      "bubbles"])
    def test_coefficient_arrays_are_read_only(self, name):
        # the power table is built once, so an edit could not show: an
        # array the function takes over is frozen whoever holds it, and a
        # view is copied, so an edit of its base leaves the function be
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=5,
                                   n_elements=4, kind="uniform"))
        given = {"node_values": np.zeros(5), "node_slopes": np.zeros(5),
                 "bubbles": np.zeros((4, 2))}
        u = FEFunction(mesh=mesh, **given)
        for arr in (getattr(u, name), given[name]):
            with pytest.raises(ValueError, match="read-only"):
                arr[1] = 1.0
        base = np.zeros((2,) + given[name].shape)
        v = FEFunction(mesh=mesh, **{**given, name: base[0]})
        base[0, 1] = 1.0
        assert not getattr(v, name).flags.writeable
        assert np.all(getattr(v, name) == 0.0)
        assert np.all(v(np.linspace(0.0, 1.0, 9)) == 0.0)

    def test_quintic_bubbles_participate(self):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=5,
                                   n_elements=4, kind="uniform"))
        space = Space(mesh, 5)
        vec = np.zeros(space.n_free)
        vec[space.element_dofs[1, 4]] = 1.0
        u = FEFunction.from_dof_vector(space, vec)
        inside = u(np.array([0.375]))
        assert abs(inside[0]) > 1e-4
        assert np.max(np.abs(u(mesh.nodes))) < 1e-15

    @staticmethod
    def rational_oracle(u, x, deriv):
        """The Hermite combination's deriv-th derivative at each x in exact
        rational arithmetic, with the sum of the absolute values of its
        terms: every coefficient times every monomial of its shape, which
        is the scale of the rounding error of any power-basis evaluation."""
        s_sym, shapes = symbolic_shape_functions(u.p)
        monomials = [[Fraction(int(c.p), int(c.q)) for c in reversed(
            sp.Poly(sp.diff(f, s_sym, deriv), s_sym).all_coeffs())]
            for f in shapes]
        e_of = np.clip(np.searchsorted(u.mesh.nodes, x, side="right") - 1,
                       0, u.mesh.n_elements - 1)
        exact, scale = [], []
        for xi, e in zip(x, e_of):
            x0 = Fraction(u.mesh.nodes[e])
            h = Fraction(u.mesh.nodes[e + 1]) - x0
            s = (Fraction(xi) - x0) / h
            local = [Fraction(u.node_values[e]), h * Fraction(u.node_slopes[e]),
                     Fraction(u.node_values[e + 1]),
                     h * Fraction(u.node_slopes[e + 1])]
            local += [Fraction(b) for b in u.bubbles[e]]
            terms = [c * m * s**k / h**deriv
                     for c, row in zip(local, monomials)
                     for k, m in enumerate(row)]
            exact.append(sum(terms))
            scale.append(sum(abs(t) for t in terms))
        return exact, scale

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_tuple_deriv_columns_equal_single_calls(self, p):
        mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=p,
                                   n_elements=16, kind="exp"))
        space = Space(mesh, p)
        rng = np.random.default_rng(p)
        u = FEFunction.from_dof_vector(space,
                                       rng.standard_normal(space.n_free))
        x = np.concatenate([[0.0, 1.0], mesh.nodes, rng.random(500)])
        derivs = (0, 1, 2)
        cols = u(x, derivs)
        assert cols.shape == (len(x), len(derivs))
        for j, d in enumerate(derivs):
            single = u(x, d)
            assert single.ndim == 1
            assert np.array_equal(cols[:, j], single)
            exact, scale = self.rational_oracle(u, x, d)
            for got, want, bound in zip(single, exact, scale):
                assert abs(Fraction(got) - want) <= Fraction(1e-14) * bound
        assert np.array_equal(u(x, (1,))[:, 0], u(x, deriv=1))

    @pytest.mark.parametrize("p", [3, 5])
    def test_node_values_returned_exactly(self, p):
        # at a node the local coordinate is 0, so the value is the constant
        # term of the element's polynomial, which is the node value itself
        mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=p,
                                   n_elements=16, kind="exp"))
        space = Space(mesh, p)
        rng = np.random.default_rng(10 + p)
        u = FEFunction.from_dof_vector(space,
                                       rng.standard_normal(space.n_free))
        assert np.array_equal(u(mesh.nodes[:-1]), u.node_values[:-1])

    @pytest.mark.parametrize("p", [3, 5])
    def test_end_data_returned_exactly(self, p):
        # at x = 1 the local coordinate is 1, where the power form gives a
        # rounded sum of coefficients; the stored end data are returned
        mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=p,
                                   n_elements=16, kind="exp"))
        rng = np.random.default_rng(20 + p)
        u = FEFunction(mesh=mesh, node_values=rng.standard_normal(17),
                       node_slopes=rng.standard_normal(17),
                       bubbles=rng.standard_normal((16, p - 3)))
        end = np.array([u.node_values[-1], u.node_slopes[-1]])
        assert np.array_equal(u(1.0, (0, 1)), [end])
        assert np.array_equal(u([0.5, 1.0, 1.0], (1, 0, 2))[1:, :2],
                              [end[::-1]] * 2)
        assert u(1.0)[0] == end[0] and u(1.0, deriv=1)[0] == end[1]

    def test_local_coordinates_equal_point_calls(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=5,
                                   n_elements=16, kind="exp"))
        space = Space(mesh, 5)
        rng = np.random.default_rng(6)
        u = FEFunction.from_dof_vector(space,
                                       rng.standard_normal(space.n_free))
        x = rng.random(200)
        e = np.searchsorted(mesh.nodes, x, side="right") - 1
        t = (x - mesh.nodes[e]) * (1.0 / mesh.widths)[e]
        assert np.array_equal(u(t, (0, 1, 2), element=e), u(x, (0, 1, 2)))


class TestFEFunctionModes:
    """A trailing mode axis: every mode equals the function built from
    its own dof vector, bit for bit."""

    @staticmethod
    def make(p, n_modes=3):
        mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=p,
                                   n_elements=16, kind="exp"))
        space = Space(mesh, p)
        rng = np.random.default_rng(30 + p)
        vecs = rng.standard_normal((space.n_free, n_modes))
        return space, vecs

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_from_dof_vector_stacks_modes(self, p):
        space, vecs = self.make(p)
        u = FEFunction.from_dof_vector(space, vecs)
        assert u.node_values.shape == (17, 3)
        assert u.bubbles.shape == (16, p - 3, 3)
        for m in range(3):
            single = FEFunction.from_dof_vector(space, vecs[:, m])
            assert np.array_equal(u.node_values[:, m], single.node_values)
            assert np.array_equal(u.node_slopes[:, m], single.node_slopes)
            assert np.array_equal(u.bubbles[..., m], single.bubbles)

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    @pytest.mark.parametrize("deriv", [0, 1, 2, (0, 1), (2, 0, 1)], ids=str)
    def test_located_points_equal_single_calls(self, p, deriv):
        space, vecs = self.make(p)
        u = FEFunction.from_dof_vector(space, vecs)
        rng = np.random.default_rng(40 + p)
        # nodes, the last node among them, and the last node again
        x = np.concatenate([space.mesh.nodes, rng.random(300),
                            [1.0, 0.5, 1.0]])
        out = u(x, deriv)
        n_orders = () if np.ndim(deriv) == 0 else (len(deriv),)
        assert out.shape == (len(x),) + n_orders + (3,)
        for m in range(3):
            single = FEFunction.from_dof_vector(space, vecs[:, m])
            assert np.array_equal(out[..., m], single(x, deriv))

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_local_coordinates_equal_single_calls(self, p):
        space, vecs = self.make(p)
        u = FEFunction.from_dof_vector(space, vecs)
        rng = np.random.default_rng(50 + p)
        e = np.concatenate([rng.integers(0, 16, 200), [15]])
        t = np.concatenate([rng.random(200), [1.0]])   # the last node
        out = u(t, (0, 1, 2), element=e)
        for m in range(3):
            single = FEFunction.from_dof_vector(space, vecs[:, m])
            assert np.array_equal(out[..., m], single(t, (0, 1, 2),
                                                      element=e))

    def test_end_data_returned_exactly_per_mode(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=5,
                                   n_elements=16, kind="exp"))
        rng = np.random.default_rng(60)
        u = FEFunction(mesh=mesh, node_values=rng.standard_normal(
            (17, 2)), node_slopes=rng.standard_normal((17, 2)),
            bubbles=rng.standard_normal((16, 2, 2)))
        out = u([0.5, 1.0], (1, 0, 2))
        assert np.array_equal(out[1, :2], [u.node_slopes[-1],
                                           u.node_values[-1]])
        assert np.array_equal(u(1.0)[0], u.node_values[-1])

    def test_mode_axes_must_agree(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))
        with pytest.raises(DimensionMismatch):
            FEFunction(mesh=mesh, node_values=np.zeros((5, 2)),
                       node_slopes=np.zeros(5))


class TestFEFunctionModeMemory:
    """Evaluating several modes at once: each added mode allocates at most
    its share of the result and of the Horner row, plus two coefficient
    tables' worth, the (mode, element, coefficient) table itself and room
    for numpy's transient buffers.  A per-mode copy of the points, t, 1/h
    or the piece index exceeds that."""

    def test_added_modes_cost_their_share(self):
        # the mode files of `solve --p 5 --n 512 --modes 5`
        p, n, n_modes = 5, 512, 5
        mesh = build_mesh(MeshSpec(epsilon=1e-4, beta=1.0, p=p,
                                   n_elements=n, kind="exp"))
        space = Space(mesh, p)
        x = np.unique(np.concatenate([np.linspace(0.0, 1.0, 2001),
                                      mesh.nodes]))
        vecs = np.random.default_rng(70).standard_normal(
            (space.n_free, n_modes))

        def peak(vec):
            u = FEFunction.from_dof_vector(space, vec)
            u(x, (0, 1))                  # first-call allocations aside
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                u(x, (0, 1))
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        result, row, table = 2 * len(x) * 8, len(x) * 8, n * (p + 1) * 8
        added = peak(vecs) - peak(vecs[:, :1])
        assert added <= (n_modes - 1) * (result + row + 2 * table)
