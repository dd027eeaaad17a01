"""Metamorphic relations: checks of the whole chain that need no reference
solve, because the answer to one input is known from the answer to
another.  Each runs on a = e^x, b = x with the four lowest modes, over a
fixed grid of cases; a case that fails is a finding to report, not one to
draw again.

Exact scaling.  eps -> 2 eps, beta -> 2 beta, a -> 4 a, b -> 4 b leaves
eps/beta, and so every node, unchanged, and turns K into 4 K with M as it
was.  Scaling by a power of two commutes with every rounding, barring
overflow and underflow, so the nodes must agree and lambda must become
4 lambda bit for bit.

p-nesting.  The bubbles are hierarchical, so on one mesh the degree-p
space lies inside the degree-(p+1) space, and by Courant-Fischer
lambda_k(p+1) <= lambda_k(p) in exact arithmetic.  Computed eigenvalues
carry rounding, so the test allows

    lambda_k(p+1) - lambda_k(p) <= 8 (w + 1) u_mach (s_k(p) + s_k(p+1)),

with u_mach = 2^-52, w the degree-(p+1) band's bandwidth and s_k the
absolute form |u|^T |K| |u| + lambda_k |u|^T |M| |u| of the M-normalized
k-th eigenvector u of that degree.  s_k / lambda_k is the condition
factor: the size of the terms that cancel in lambda = u^T K u / u^T M u
relative to the result.  This tolerance was fixed before any case was run.

Shift.  b -> b + s adds s M to K, so lambda_k(b + s) = lambda_k(b) + s
in exact arithmetic.  The test allows, for s in {1, 1000},

    |lambda_k(b + s) - lambda_k(b) - s|
        <= 8 (w + 1) u_mach (s_k(b) + s_k(b + s)),

with w the band's bandwidth and s_k the absolute form above of the k-th
eigenvector of each problem, a tolerance also fixed before any case was
run.
"""

from dataclasses import replace

import numpy as np
import pytest

from hermevp import (CoefficientSet, MeshKind, MeshSpec, SolverConfig,
                     Space, assemble, build_mesh, solve, solve_smallest)
from oracle import to_dense

MODES = 4
EPSILONS = (1e-2, 1e-5, 1e-8)
U_MACH = np.finfo(float).eps


def base_coeffs(scale=1.0, shift=0.0):
    return CoefficientSet(a=lambda x: scale * np.exp(x),
                          b=lambda x: scale * x + shift)


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("p,n", [(3, 64), (5, 256)])
@pytest.mark.parametrize("kind", list(MeshKind), ids=str)
def test_exact_scaling(kind, p, n, epsilon):
    spec = MeshSpec(epsilon=epsilon, beta=1.0, p=p, n_elements=n, kind=kind)
    scaled = replace(spec, epsilon=2.0 * epsilon, beta=2.0)
    config = SolverConfig(k=MODES)
    sol = solve(spec, base_coeffs(), config)
    sol4 = solve(scaled, base_coeffs(4.0), config)
    assert np.array_equal(sol4.mesh.nodes, sol.mesh.nodes)
    assert np.array_equal(sol4.spectrum.eigenvalues,
                          4.0 * sol.spectrum.eigenvalues)


def absolute_form(A, u):
    """|u|^T |A| |u| per column of u."""
    au = np.abs(u)
    return (au * (np.abs(to_dense(A)) @ au)).sum(axis=0)


def lowest_with_slack(space, coeffs):
    """The MODES lowest eigenvalues on space and each one's absolute form
    s_k = |u|^T |K| |u| + lambda_k |u|^T |M| |u|."""
    K, M = assemble(space, coeffs)
    spectrum = solve_smallest(K, M, SolverConfig(k=MODES))
    lam, u = spectrum.eigenvalues, spectrum.eigenvectors
    return lam, absolute_form(K, u) + lam * absolute_form(M, u)


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("kind", list(MeshKind), ids=str)
def test_degree_p_plus_one_lowers_every_eigenvalue(kind, p, n, epsilon):
    mesh = build_mesh(MeshSpec(epsilon=epsilon, beta=1.0, p=p,
                               n_elements=n, kind=kind))
    lam_p, slack_p = lowest_with_slack(Space(mesh, p), base_coeffs())
    space = Space(mesh, p + 1)
    lam_q, slack_q = lowest_with_slack(space, base_coeffs())
    tol = 8 * (space.bandwidth + 1) * U_MACH * (slack_p + slack_q)
    assert np.all(lam_q - lam_p <= tol), (lam_q - lam_p) / tol


@pytest.mark.parametrize("shift", [1.0, 1000.0])
@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("p,n", [(3, 64), (5, 256)])
@pytest.mark.parametrize("kind", list(MeshKind), ids=str)
def test_shifting_b_shifts_every_eigenvalue(kind, p, n, epsilon, shift):
    space = Space(build_mesh(MeshSpec(epsilon=epsilon, beta=1.0, p=p,
                                      n_elements=n, kind=kind)), p)
    lam, slack = lowest_with_slack(space, base_coeffs())
    lam_s, slack_s = lowest_with_slack(space, base_coeffs(shift=shift))
    tol = 8 * (space.bandwidth + 1) * U_MACH * (slack + slack_s)
    miss = np.abs(lam_s - lam - shift)
    assert np.all(miss <= tol), miss / tol
