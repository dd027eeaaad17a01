import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import brentq

from hermevp import (CoefficientSet, InvalidSpec, KTooLarge, MeshSpec,
                     NoConvergence, NotPositiveDefinite, SolverConfig,
                     Spectrum, SymBandMatrix, assemble, build_mesh,
                     eigensolver, residual_norms, shape_table,
                     solve_smallest)


def assemble_problem(epsilon=1.0, n=4, p=3, kind="uniform",
                     a=None, b=None, a_floor=1.0, degenerate=False):
    mesh = build_mesh(MeshSpec(epsilon=max(epsilon, 1e-300), beta=1.0, p=p,
                               n_elements=n, kind=kind))
    coeffs = CoefficientSet(
        a=a if a is not None else (lambda x: np.ones_like(x)),
        b=b if b is not None else (lambda x: np.zeros_like(x)),
        epsilon=epsilon, a_floor=a_floor, allow_degenerate=degenerate)
    return assemble(mesh, shape_table(p), coeffs)


def dense_oracle(K, M, k):
    lams = eigh(K.to_dense(), M.to_dense(), eigvals_only=True)
    return lams[:k]


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
        expect = dense_oracle(K, M, k)
        assert np.max(np.abs(spec.eigenvalues - expect)
                      / np.abs(expect)) < 1e-10

    def test_all_modes_recoverable(self):
        K, M, _ = assemble_problem()
        k = K.n
        spec = solve_smallest(K, M, SolverConfig(k=k))
        expect = dense_oracle(K, M, k)
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
        assert spec.ortho_error < 1e-12

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
    """Standard-mode Lanczos on C = R^{-T} M R^{-1}, the path for k < n."""

    def test_agrees_with_dense_path(self):
        K, M, _ = assemble_problem(epsilon=1e-2, n=16, p=3, kind="exp")
        for k in (3, K.n):
            dense, _ = eigensolver._solve_dense_reduce(K, M, k)
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
        dense, _ = eigensolver._solve_dense_reduce(K, M, k)
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
        K, M, _ = self.problem()
        with pytest.raises(KTooLarge, match="only 29 of the 30 modes"):
            solve_smallest(K, M, SolverConfig(k=K.n))

    def test_resolvable_modes_still_solve(self):
        K, M, _ = self.problem()
        spec = solve_smallest(K, M, SolverConfig(k=K.n - 1))
        assert np.all(spec.eigenvalues > 0.0)


class TestReducedPairs:
    def test_largest_mu_become_ascending_lambda(self):
        rband = np.ones((1, 3))                      # R = I
        mu = np.array([0.25, -1e-17, 0.5])
        lams, vecs = eigensolver._reduced_pairs(rband, mu, np.eye(3), 2)
        assert lams.tolist() == [2.0, 4.0]
        assert np.array_equal(vecs, np.eye(3)[:, [2, 0]])

    def test_nonpositive_mu_raise_k_too_large(self):
        mu = np.array([0.25, -1e-17, 0.5])
        with pytest.raises(KTooLarge, match="only 2 of the 3 modes"):
            eigensolver._reduced_pairs(np.ones((1, 3)), mu, np.eye(3), 3)


class TestClampedBeamLimit:
    def test_classical_frequencies(self):
        # eps = 1, a = b = 0 leaves the plain fourth-order beam operator,
        # whose clamped eigenvalues are k^4 with cosh(k) cos(k) = 1.
        K, M, _ = assemble_problem(epsilon=1.0, n=32, p=3, degenerate=True,
                                   a=lambda x: np.zeros_like(x))
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
        n = 4
        K = SymBandMatrix(n, 0)
        K.band[0] = [1.0, 2.0, 2.0 + 2e-9, 5.0]
        M = SymBandMatrix(n, 0)
        M.band[0] = 1.0
        spec = solve_smallest(K, M, SolverConfig(k=4))
        assert spec.clustered.tolist() == [False, True, True, False]


class TestValidation:
    def test_too_many_modes(self):
        K, M, _ = assemble_problem()
        with pytest.raises(KTooLarge):
            solve_smallest(K, M, SolverConfig(k=K.n + 1))

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
