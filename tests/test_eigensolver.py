import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from hermevp import (CoefficientSet, InvalidSpec, KTooLarge, MeshSpec,
                     NoConvergence, NotPositiveDefinite, SolverConfig,
                     Spectrum, SymBandMatrix, assemble, build_dof_map,
                     build_mesh, eigensolver, element_matrices,
                     residual_norms, shape_table, solve_smallest)
from oracle import dense_reduce, pencil_eigenvalues


def assemble_problem(epsilon=1.0, n=4, p=3, kind="uniform",
                     a=None, b=None, a_floor=1.0):
    mesh = build_mesh(MeshSpec(epsilon=epsilon, beta=1.0, p=p,
                               n_elements=n, kind=kind))
    coeffs = CoefficientSet(
        a=a if a is not None else (lambda x: np.ones_like(x)),
        b=b if b is not None else (lambda x: np.zeros_like(x)),
        epsilon=epsilon, a_floor=a_floor)
    return assemble(mesh, shape_table(p), coeffs)


class TestSolveSmallest:
    @pytest.mark.parametrize("problem", [
        dict(epsilon=1.0, n=4, p=3),
        dict(epsilon=0.1, n=6, p=3, a=np.exp, b=lambda x: x),
        dict(epsilon=1e-2, n=8, p=4, kind="exp", b=lambda x: np.ones_like(x)),
    ])
    def test_matches_direct_dense_solver(self, problem):
        K, M, _ = assemble_problem(**problem)
        k = 5
        spec = solve_smallest(K, M, SolverConfig(k=k))
        expect = pencil_eigenvalues(K, M, k)
        assert np.max(np.abs(spec.eigenvalues - expect)
                      / np.abs(expect)) < 1e-10

    def test_all_modes_recoverable(self):
        # ARPACK's most: every mode but the highest
        K, M, _ = assemble_problem()
        k = K.n - 1
        spec = solve_smallest(K, M, SolverConfig(k=k))
        expect = pencil_eigenvalues(K, M, k)
        assert np.allclose(spec.eigenvalues, expect, rtol=1e-9)

    def test_eigenvalues_ascending_and_positive(self):
        K, M, _ = assemble_problem(epsilon=1e-3, n=16, p=3, kind="exp")
        spec = solve_smallest(K, M, SolverConfig(k=4))
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)
        assert np.all(spec.eigenvalues > 0.0)

    def test_mass_normalization_and_orthogonality(self):
        K, M, _ = assemble_problem(epsilon=0.1, n=8, p=3)
        spec = solve_smallest(K, M, SolverConfig(k=3))
        for i in range(3):
            u = spec.eigenvectors[:, i]
            assert u @ M.matvec(u) == pytest.approx(1.0, rel=1e-12)
            assert u[np.argmax(np.abs(u))] > 0.0
        vecs = spec.eigenvectors
        gram = vecs.T @ np.stack([M.matvec(u) for u in vecs.T], axis=1)
        assert np.abs(gram - np.eye(3)).max() < 1e-12

    def test_bitwise_determinism(self):
        K, M, _ = assemble_problem(epsilon=1e-2, n=8, p=3, kind="exp")
        a = solve_smallest(K, M, SolverConfig(k=3))
        b = solve_smallest(K, M, SolverConfig(k=3))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_residuals_tiny_for_returned_pairs(self):
        K, M, _ = assemble_problem(epsilon=1e-3, n=16, p=3, kind="exp")
        spec = solve_smallest(K, M, SolverConfig(k=3))
        assert np.all(spec.residuals < 1e-13)


class TestShiftInvert:
    """Standard-mode Lanczos on C = R^{-T} M R^{-1}, against the same
    reduction formed densely."""

    def test_agrees_with_dense_path(self):
        K, M, _ = assemble_problem(epsilon=1e-2, n=16, p=3, kind="exp")
        for k in (3, K.n - 1):
            dense, _ = dense_reduce(K, M, k)
            si = solve_smallest(K, M, SolverConfig(k=k))
            assert np.max(np.abs(si.eigenvalues - dense) / dense) < 1e-9

    @pytest.mark.parametrize("p,n,kind,epsilon,k", [
        (5, 512, "exp", 1e-8, 5),
        (3, 1024, "shishkin", 1e-6, 2),
    ])
    def test_agrees_with_dense_path_on_layer_meshes(self, p, n, kind,
                                                    epsilon, k):
        K, M, _ = assemble_problem(epsilon=epsilon, n=n, p=p, kind=kind,
                                   a=np.exp, b=lambda x: x)
        dense, _ = dense_reduce(K, M, k)
        si = solve_smallest(K, M, SolverConfig(k=k))
        assert np.max(np.abs(si.eigenvalues - dense) / dense) < 1e-12

    def test_bitwise_determinism(self):
        K, M, _ = assemble_problem(epsilon=0.1, n=12, p=3)
        a = solve_smallest(K, M, SolverConfig(k=2))
        b = solve_smallest(K, M, SolverConfig(k=2))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_iteration_count_reported(self):
        K, M, _ = assemble_problem(epsilon=0.1, n=12, p=3)
        spec = solve_smallest(K, M, SolverConfig(k=2))
        assert spec.iterations >= 2

    def test_study_reference_takes_fourteen_applications(self):
        # the convergence study's reference: p = 3, N = 1024, k = 2, exp
        # mesh, a = e^x, b = x, eps = 1e-6.  With ncv = 2k + 2 Lanczos
        # vectors it takes 14 applications of C; scipy's default ncv = 20
        # took 21
        K, M, _ = assemble_problem(epsilon=1e-6, n=1024, p=3, kind="exp",
                                   a=np.exp, b=lambda x: x)
        spec = solve_smallest(K, M, SolverConfig(k=2))
        assert spec.iterations == 14

    def test_iteration_cap_raises(self, monkeypatch):
        # evenly spaced eigenvalues leave Lanczos no gap to converge on
        # within one restart
        n = 400
        K = SymBandMatrix(n, 0)
        K.band[0] = np.linspace(1.0, 2.0, n)
        M = SymBandMatrix(n, 0)
        M.band[0] = 1.0
        monkeypatch.setattr(eigensolver, "MAX_RESTARTS", 1)
        with pytest.raises(NoConvergence):
            solve_smallest(K, M, SolverConfig(k=3))

    def test_indefinite_stiffness_rejected(self):
        _, M, _ = assemble_problem(epsilon=0.1, n=12, p=3)
        K = SymBandMatrix(M.n, 0)
        K.band[0] = 1.0
        K.band[0, 5] = -1.0
        with pytest.raises(NotPositiveDefinite):
            solve_smallest(K, M, SolverConfig(k=2))

    def test_no_dense_matrix_on_solve_path(self):
        # 8190 dofs: one dense n x n float64 matrix would take 537 MB
        K, M, _ = assemble_problem(epsilon=1e-8, n=2048, p=5, kind="exp",
                                   a=np.exp, b=lambda x: x)
        tracemalloc.start()
        try:
            solve_smallest(K, M, SolverConfig(k=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < K.n * K.n * 8


class TestUnresolvableModes:
    def problem(self):
        # p=5, N=8 at eps=1e-8: 30 dofs, the highest lambda near 2e17
        return assemble_problem(epsilon=1e-8, n=8, p=5, kind="exp",
                                a=np.exp, b=lambda x: x)

    def test_all_modes_beyond_rounding_raise_k_too_large(self):
        # all 30 modes: refused as k >= n before the mu <= 0 check, which
        # TestReducedPairs covers
        K, M, _ = self.problem()
        with pytest.raises(KTooLarge, match="at most n - 1 = 29"):
            solve_smallest(K, M, SolverConfig(k=K.n))

    def test_resolvable_modes_still_solve(self):
        K, M, _ = self.problem()
        spec = solve_smallest(K, M, SolverConfig(k=K.n - 1))
        assert np.all(spec.eigenvalues > 0.0)


class TestReducedPairs:
    def test_largest_mu_become_ascending_lambda(self):
        rband = np.ones((1, 3))                      # R = I
        mu = np.array([0.25, -1e-17, 0.5])
        y = np.array([[0.6, 0.0, 0.0],
                      [0.0, 1.0, 0.8],
                      [-0.8, 0.0, -0.6]])
        lams, vecs = eigensolver._reduced_pairs(rband, mu, y, 2)
        assert lams.tolist() == [2.0, 4.0]
        # y / sqrt(mu), each column's largest entry made positive
        expect = np.column_stack([y[:, 2] / np.sqrt(0.5),
                                  -y[:, 0] / np.sqrt(0.25)])
        assert np.array_equal(vecs, expect)

    def test_nonpositive_mu_raise_k_too_large(self):
        mu = np.array([0.25, -1e-17, 0.5])
        with pytest.raises(KTooLarge, match="only 2 of the 3 modes"):
            eigensolver._reduced_pairs(np.ones((1, 3)), mu, np.eye(3), 3)


class TestNormalizationThroughReduction:
    # u^T M u = y^T C y = mu: the division by sqrt(mu) M-normalizes the
    # returned vectors to within ARPACK's residual, on the benchmark's
    # fine pencil and the convergence study's reference pencil
    @pytest.mark.parametrize("problem", [
        dict(epsilon=1e-8, n=512, p=5, kind="exp", a=np.exp,
             b=lambda x: x),
        dict(epsilon=1e-8, n=1024, p=3, kind="shishkin"),
    ], ids=["exp-p5-expx", "shishkin-p3-const"])
    def test_vectors_are_m_orthonormal(self, problem):
        K, M, _ = assemble_problem(**problem)
        k = 5
        vecs = solve_smallest(K, M, SolverConfig(k=k)).eigenvectors
        m_vecs = np.stack([M.matvec(u) for u in vecs.T], axis=1)
        gram = vecs.T @ m_vecs
        assert np.abs(np.diag(gram) - 1.0).max() <= 1e-12
        assert np.abs(gram - np.eye(k)).max() <= 1e-12


class TestClampedBeamLimit:
    def test_classical_frequencies(self):
        # eps = 1, a = b = 0 leaves the plain fourth-order beam operator,
        # whose clamped eigenvalues are k^4 with cosh(k) cos(k) = 1.
        # assemble refuses a = 0, so the pencil is scattered here.
        n, p = 32, 3
        shapes = shape_table(p)
        zero = np.zeros((n, shapes.rule.n_points))
        dofmap = build_dof_map(n, p)
        k_el, m_el = element_matrices(np.full(n, 1.0 / n), shapes, 1.0,
                                      zero, zero, dofmap.pairs)
        K = SymBandMatrix(dofmap.n_free, dofmap.bandwidth)
        M = SymBandMatrix(dofmap.n_free, dofmap.bandwidth)
        index = K.band_index(dofmap.element_dofs, dofmap.pairs)
        K.scatter(index, k_el)
        M.scatter(index, m_el)
        spec = solve_smallest(K, M, SolverConfig(k=2))
        k1 = brentq(lambda k: np.cosh(k) * np.cos(k) - 1.0, 4.0, 5.5)
        k2 = brentq(lambda k: np.cosh(k) * np.cos(k) - 1.0, 7.0, 8.5)
        expect = np.array([k1**4, k2**4])
        assert np.max(np.abs(spec.eigenvalues - expect) / expect) < 1e-5


class TestResidualCheck:
    def test_true_pair_small_perturbed_pair_large(self):
        K, M, _ = assemble_problem(epsilon=0.1, n=8, p=3)
        spec = solve_smallest(K, M, SolverConfig(k=1))
        lam = float(spec.eigenvalues[0])
        u = spec.eigenvectors[:, 0]
        lams = np.array([lam])
        assert residual_norms(K, M, lams, u[:, None])[0] < 1e-12
        rng = np.random.default_rng(11)
        bad = u + 1e-3 * rng.standard_normal(len(u))
        assert residual_norms(K, M, lams, bad[:, None])[0] > 1e-6


class TestClusterFlags:
    def test_near_degenerate_pair_flagged(self):
        # a fifth mode above the four asked for: ARPACK returns n - 1
        n = 5
        K = SymBandMatrix(n, 0)
        K.band[0] = [1.0, 2.0, 2.0 + 2e-9, 5.0, 9.0]
        M = SymBandMatrix(n, 0)
        M.band[0] = 1.0
        spec = solve_smallest(K, M, SolverConfig(k=4))
        assert spec.clustered.tolist() == [False, True, True, False]


class TestValidation:
    def test_too_many_modes(self):
        K, M, _ = assemble_problem()
        with pytest.raises(KTooLarge):
            solve_smallest(K, M, SolverConfig(k=K.n + 1))

    @pytest.mark.parametrize("extra", [0, 1])
    def test_k_at_least_n_refused_before_factoring(self, extra):
        # both matrices are indefinite, so factoring either would raise
        # NotPositiveDefinite
        K = SymBandMatrix(3, 0)
        K.band[0] = [1.0, -1.0, 1.0]
        M = SymBandMatrix(3, 0)
        M.band[0] = [1.0, -1.0, 1.0]
        with pytest.raises(KTooLarge, match="at most n - 1 = 2"):
            solve_smallest(K, M, SolverConfig(k=3 + extra))

    def test_size_mismatch(self):
        K, M, _ = assemble_problem()
        other = SymBandMatrix(K.n + 1, K.bandwidth)
        with pytest.raises(InvalidSpec):
            solve_smallest(K, other, SolverConfig(k=1))

    def test_indefinite_mass_matrix(self):
        K = SymBandMatrix(3, 0)
        K.band[0] = 1.0
        M = SymBandMatrix(3, 0)
        M.band[0] = [1.0, -1.0, 1.0]
        with pytest.raises(NotPositiveDefinite):
            solve_smallest(K, M, SolverConfig(k=1))

    @pytest.mark.parametrize("kw", [
        dict(k=0), dict(k=1, tol=0.0),
    ])
    def test_bad_config(self, kw):
        with pytest.raises(InvalidSpec):
            SolverConfig(**kw)

    def test_spectrum_arrays_read_only(self):
        K, M, _ = assemble_problem()
        spec = solve_smallest(K, M, SolverConfig(k=2))
        with pytest.raises(ValueError):
            spec.eigenvalues[0] = 0.0
        assert isinstance(spec, Spectrum)
