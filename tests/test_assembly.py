import numpy as np
import pytest
import sympy as sp

from hermevp import (CoefficientSet, CoefficientViolation, DimensionMismatch,
                     FEFunction, InvalidSpec, MeshSpec, SymBandMatrix,
                     ZeroVector, assemble, build_dof_map, build_mesh,
                     element_matrices, energy_inner_product, gauss_rule,
                     hermite_basis, rayleigh_quotient, shape_table)


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


class TestElementMatricesAgainstExactIntegrals:
    """Each bilinear-form term in isolation versus exact symbolic
    integration of the reference basis, including the width scaling of
    the slope dofs."""

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_second_derivative_term(self, p, h):
        shapes = shape_table(p)
        k_loc, _ = element_matrices(h, shapes, epsilon=1.0,
                                    a_vals=np.zeros(shapes.rule.n_points),
                                    b_vals=np.zeros(shapes.rule.n_points))
        d = np.ones(p + 1)
        d[1] = d[3] = h
        expect = symbolic_element_matrices(p, 2) / h**3 * np.outer(d, d)
        assert np.max(np.abs(k_loc - expect)) < 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_first_derivative_term(self, p, h):
        shapes = shape_table(p)
        k_loc, _ = element_matrices(h, shapes, epsilon=0.0,
                                    a_vals=np.ones(shapes.rule.n_points),
                                    b_vals=np.zeros(shapes.rule.n_points))
        d = np.ones(p + 1)
        d[1] = d[3] = h
        expect = symbolic_element_matrices(p, 1) / h * np.outer(d, d)
        assert np.max(np.abs(k_loc - expect)) < 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_mass_term(self, p, h):
        shapes = shape_table(p)
        k_loc, m_loc = element_matrices(h, shapes, epsilon=0.0,
                                        a_vals=np.zeros(shapes.rule.n_points),
                                        b_vals=np.ones(shapes.rule.n_points))
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
        k_el, m_el = element_matrices(h, shapes, 1e-3, a, b)
        assert k_el.shape == m_el.shape == (7, p + 1, p + 1)
        pairs = [element_matrices(h[e], shapes, 1e-3, a[e], b[e])
                 for e in range(7)]
        assert np.array_equal(k_el, np.stack([k for k, _ in pairs]))
        assert np.array_equal(m_el, np.stack([m for _, m in pairs]))


class TestDofMap:
    def test_cubic_map_on_four_elements(self):
        dm = build_dof_map(4, 3)
        assert dm.n_free == 6
        assert dm.bandwidth == 3
        expect = np.array([[-1, -1, 0, 1],
                           [0, 1, 2, 3],
                           [2, 3, 4, 5],
                           [4, 5, -1, -1]])
        assert np.array_equal(dm.element_dofs, expect)
        assert np.array_equal(dm.value_indices, [0, 2, 4])
        assert np.array_equal(dm.slope_indices, [1, 3, 5])

    def test_quintic_map_counts_and_bandwidth(self):
        dm = build_dof_map(4, 5)
        assert dm.n_free == 2 * 3 + 4 * 2
        assert dm.bandwidth == 5
        free = dm.element_dofs[dm.element_dofs >= 0]
        assert set(free.tolist()) == set(range(dm.n_free))

    @pytest.mark.parametrize("n,p", [(8, 3), (8, 4), (16, 5), (6, 6)])
    def test_free_count_formula(self, n, p):
        dm = build_dof_map(n, p)
        assert dm.n_free == 2 * (n - 1) + n * (p - 3)
        assert dm.bandwidth == p

    def test_degree_checked(self):
        with pytest.raises(InvalidSpec):
            build_dof_map(4, 2)


class TestSymBandMatrix:
    def test_scatter_skips_eliminated_rows(self):
        A = SymBandMatrix(3, 1)
        local = np.array([[2.0, 1.0, 0.5],
                          [1.0, 3.0, 1.5],
                          [0.5, 1.5, 4.0]])
        A.scatter(np.array([-1, 0, 1]), local)
        dense = A.to_dense()
        expect = np.zeros((3, 3))
        expect[:2, :2] = local[1:, 1:]
        assert np.array_equal(dense, expect)

    def test_scatter_accumulates(self):
        A = SymBandMatrix(4, 2)
        loc = np.full((2, 2), 1.0)
        A.scatter(np.array([1, 2]), loc)
        A.scatter(np.array([1, 2]), loc)
        assert A.to_dense()[1, 2] == 2.0
        assert A.to_dense()[2, 1] == 2.0

    def test_batched_scatter_equals_one_at_a_time(self):
        rng = np.random.default_rng(8)
        dm = build_dof_map(6, 5)
        local = rng.standard_normal((6, 6, 6))
        local = local + local.transpose(0, 2, 1)
        batched = SymBandMatrix(dm.n_free, dm.bandwidth)
        batched.scatter(dm.element_dofs, local)
        single = SymBandMatrix(dm.n_free, dm.bandwidth)
        for e in range(6):
            single.scatter(dm.element_dofs[e], local[e])
        assert np.array_equal(batched.band, single.band)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(7)
        A = SymBandMatrix(9, 3)
        for _ in range(5):
            idx = rng.choice(9, size=4, replace=False)
            idx.sort()
            if idx[-1] - idx[0] > 3:
                continue
            sym = rng.standard_normal((4, 4))
            A.scatter(idx, sym + sym.T)
        x = rng.standard_normal(9)
        assert np.allclose(A.matvec(x), A.to_dense() @ x, atol=1e-14)

    def test_matvec_shape_checked(self):
        A = SymBandMatrix(4, 1)
        with pytest.raises(DimensionMismatch):
            A.matvec(np.zeros(5))

    def test_norm_inf(self):
        A = SymBandMatrix(3, 1)
        A.scatter(np.array([0, 1]), np.array([[1.0, -2.0], [-2.0, 5.0]]))
        assert A.norm_inf() == 7.0

    @pytest.mark.parametrize("n,bw", [(1, 0), (5, 0), (9, 3), (40, 5),
                                      (3, 3), (2, 6)])
    def test_norm_inf_matches_dense_on_random_bands(self, n, bw):
        rng = np.random.default_rng(10 * n + bw)
        A = SymBandMatrix(n, bw)
        A.band[:] = rng.standard_normal(A.band.shape)
        expect = np.abs(A.to_dense()).sum(1).max()
        assert A.norm_inf() == pytest.approx(expect, rel=1e-14)

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidSpec):
            SymBandMatrix(0, 1)


def default_coeffs(epsilon=0.3):
    return CoefficientSet(a=np.exp, b=lambda x: x, epsilon=epsilon,
                          a_floor=1.0)


class TestAssemble:
    def test_matches_direct_integration_of_bilinear_form(self):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))
        shapes = shape_table(3)
        coeffs = default_coeffs()
        K, M, dofmap = assemble(mesh, shapes, coeffs)

        rule = gauss_rule(20)
        xq = (mesh.nodes[:-1, None]
              + mesh.widths[:, None] * rule.points[None, :]).ravel()
        wq = (mesh.widths[:, None] * rule.weights[None, :]).ravel()

        basis_fns = []
        for i in range(dofmap.n_free):
            e = np.zeros(dofmap.n_free)
            e[i] = 1.0
            basis_fns.append(FEFunction.from_dof_vector(mesh, dofmap, e))

        n = dofmap.n_free
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

        assert np.allclose(K.to_dense(), K_direct, rtol=1e-12, atol=1e-13)
        assert np.allclose(M.to_dense(), M_direct, rtol=1e-12, atol=1e-15)

    def test_matrices_positive_definite(self):
        mesh = build_mesh(MeshSpec(epsilon=1e-4, beta=1.0, p=4,
                                   n_elements=16, kind="exp"))
        K, M, _ = assemble(mesh, shape_table(4), default_coeffs(1e-4))
        np.linalg.cholesky(K.to_dense())
        np.linalg.cholesky(M.to_dense())

    def test_degree_mismatch_rejected(self):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))
        with pytest.raises(InvalidSpec):
            assemble(mesh, shape_table(4), default_coeffs())

    def test_a_below_floor_rejected(self):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))
        coeffs = CoefficientSet(a=lambda x: x, b=lambda x: 0.0 * x,
                                epsilon=0.3, a_floor=0.5)
        with pytest.raises(CoefficientViolation):
            assemble(mesh, shape_table(3), coeffs)

    def test_negative_b_rejected(self):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))
        coeffs = CoefficientSet(a=lambda x: 1.0 + 0.0 * x,
                                b=lambda x: x - 0.5,
                                epsilon=0.3, a_floor=1.0)
        with pytest.raises(CoefficientViolation):
            assemble(mesh, shape_table(3), coeffs)

    def test_degenerate_flag_skips_checks(self):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))
        coeffs = CoefficientSet(a=lambda x: 0.0 * x, b=lambda x: 0.0 * x,
                                epsilon=1.0, a_floor=0.0,
                                allow_degenerate=True)
        K, _, _ = assemble(mesh, shape_table(3), coeffs)
        np.linalg.cholesky(K.to_dense())

    def test_scalar_coefficient_broadcast(self):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))
        lits = CoefficientSet(a=lambda x: 1.0, b=lambda x: 0.0,
                              epsilon=0.3, a_floor=1.0,
                              allow_degenerate=True)
        fns = CoefficientSet(a=lambda x: np.ones_like(x),
                             b=lambda x: np.zeros_like(x),
                             epsilon=0.3, a_floor=1.0)
        K1, M1, _ = assemble(mesh, shape_table(3), lits)
        K2, M2, _ = assemble(mesh, shape_table(3), fns)
        assert np.array_equal(K1.band, K2.band)
        assert np.array_equal(M1.band, M2.band)

    def test_coefficient_set_validation(self):
        with pytest.raises(InvalidSpec):
            CoefficientSet(a=np.exp, b=np.exp, epsilon=0.0, a_floor=1.0)
        with pytest.raises(InvalidSpec):
            CoefficientSet(a=np.exp, b=np.exp, epsilon=0.5, a_floor=0.0)


class TestQuotients:
    def make_problem(self):
        mesh = build_mesh(MeshSpec(epsilon=0.1, beta=1.0, p=3,
                                   n_elements=8, kind="uniform"))
        coeffs = CoefficientSet(a=lambda x: np.ones_like(x),
                                b=lambda x: np.zeros_like(x),
                                epsilon=0.1, a_floor=1.0)
        return assemble(mesh, shape_table(3), coeffs)

    def test_rayleigh_never_below_smallest_eigenvalue(self):
        from scipy.linalg import eigh
        K, M, _ = self.make_problem()
        lam1 = eigh(K.to_dense(), M.to_dense(), eigvals_only=True)[0]
        rng = np.random.default_rng(99)
        for _ in range(50):
            u = rng.standard_normal(K.n)
            assert rayleigh_quotient(K, M, u) >= lam1 * (1.0 - 1e-10)

    def test_zero_vector_rejected(self):
        K, M, _ = self.make_problem()
        with pytest.raises(ZeroVector):
            rayleigh_quotient(K, M, np.zeros(K.n))

    def test_energy_inner_product_shape_checked(self):
        K, _, _ = self.make_problem()
        with pytest.raises(DimensionMismatch):
            energy_inner_product(K, np.zeros(K.n), np.zeros(K.n + 1))

    def test_energy_inner_product_symmetric(self):
        K, _, _ = self.make_problem()
        rng = np.random.default_rng(5)
        u = rng.standard_normal(K.n)
        v = rng.standard_normal(K.n)
        assert energy_inner_product(K, u, v) == pytest.approx(
            energy_inner_product(K, v, u), rel=1e-12)


class TestFEFunction:
    def make(self):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=3,
                                   n_elements=4, kind="uniform"))
        _, _, dofmap = assemble(mesh, shape_table(3), default_coeffs())
        return mesh, dofmap

    def test_dof_vector_unpacking(self):
        mesh, dofmap = self.make()
        u = FEFunction.from_dof_vector(mesh, dofmap,
                                       np.arange(1.0, 7.0))
        assert np.array_equal(u.node_values, [0, 1, 3, 5, 0])
        assert np.array_equal(u.node_slopes, [0, 2, 4, 6, 0])

    def test_interpolation_property_at_nodes(self):
        mesh, dofmap = self.make()
        rng = np.random.default_rng(3)
        u = FEFunction.from_dof_vector(mesh, dofmap,
                                       rng.standard_normal(dofmap.n_free))
        assert np.allclose(u(mesh.nodes), u.node_values, atol=1e-14)
        assert np.allclose(u(mesh.nodes, deriv=1), u.node_slopes, atol=1e-13)

    def test_clamped_ends(self):
        mesh, dofmap = self.make()
        rng = np.random.default_rng(4)
        u = FEFunction.from_dof_vector(mesh, dofmap,
                                       rng.standard_normal(dofmap.n_free))
        for deriv in (0, 1):
            vals = u(np.array([0.0, 1.0]), deriv=deriv)
            assert np.max(np.abs(vals)) < 1e-13

    def test_wrong_vector_length(self):
        mesh, dofmap = self.make()
        with pytest.raises(DimensionMismatch):
            FEFunction.from_dof_vector(mesh, dofmap, np.zeros(7))

    def test_wrong_array_lengths(self):
        mesh, _ = self.make()
        with pytest.raises(DimensionMismatch):
            FEFunction(mesh=mesh, p=3, node_values=np.zeros(3),
                       node_slopes=np.zeros(5))

    def test_quintic_bubbles_participate(self):
        mesh = build_mesh(MeshSpec(epsilon=0.3, beta=1.0, p=5,
                                   n_elements=4, kind="uniform"))
        _, _, dofmap = assemble(mesh, shape_table(5), default_coeffs())
        vec = np.zeros(dofmap.n_free)
        vec[dofmap.element_dofs[1, 4]] = 1.0
        u = FEFunction.from_dof_vector(mesh, dofmap, vec)
        inside = u(np.array([0.375]))
        assert abs(inside[0]) > 1e-4
        assert np.max(np.abs(u(mesh.nodes))) < 1e-15

    @staticmethod
    def per_point_reference(u, x, deriv):
        # the single-order evaluation, in its own operation order
        e = np.clip(np.searchsorted(u.mesh.nodes, x, side="right") - 1,
                    0, u.mesh.n_elements - 1)
        h = u.mesh.widths[e]
        basis = hermite_basis(u.p, (x - u.mesh.nodes[e]) / h, deriv)
        out = (u.node_values[e] * basis[0]
               + h * u.node_slopes[e] * basis[1]
               + u.node_values[e + 1] * basis[2]
               + h * u.node_slopes[e + 1] * basis[3])
        for m in range(u.p - 3):
            out += u.bubbles[e, m] * basis[4 + m]
        return out / h**deriv

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_tuple_deriv_columns_equal_single_calls(self, p):
        mesh = build_mesh(MeshSpec(epsilon=1e-3, beta=1.0, p=p,
                                   n_elements=16, kind="exp"))
        _, _, dofmap = assemble(mesh, shape_table(p), default_coeffs())
        rng = np.random.default_rng(p)
        u = FEFunction.from_dof_vector(mesh, dofmap,
                                       rng.standard_normal(dofmap.n_free))
        x = np.concatenate([[0.0, 1.0], mesh.nodes, rng.random(500)])
        derivs = (0, 1, 2)
        cols = u(x, derivs)
        assert cols.shape == (len(x), len(derivs))
        for j, d in enumerate(derivs):
            single = u(x, d)
            assert single.ndim == 1
            assert np.array_equal(cols[:, j], single)
            assert np.array_equal(single, self.per_point_reference(u, x, d))
        assert np.array_equal(u(x, (1,))[:, 0], u(x, deriv=1))
