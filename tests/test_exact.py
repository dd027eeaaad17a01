"""The constant-coefficient oracle against its 40-digit values, its
eigenfunctions against the equation and the clamped ends, solve's first
mode against its eigenfunction, and the p = 4 eigenvalue errors against
the proved order."""

import numpy as np
import pytest

from exact import constant_eigenfunction, constant_eigenvalue
from hermevp import MeshSpec, SolverConfig, fit_slope, solve
from hermevp.cli import resolve_coefficients

GRID = np.linspace(0.0, 1.0, 2001)


@pytest.mark.parametrize("epsilon, lambda1", [(1e-6, 9.8696438797228081),
                                              (1e-4, 9.8735544020637798)])
def test_first_eigenvalue_matches_high_precision_value(epsilon, lambda1):
    assert abs(constant_eigenvalue(epsilon, 1) - lambda1) <= 1e-15 * lambda1


@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("epsilon", [1e-2, 1e-4, 1e-6, 1e-8])
def test_eigenfunction_is_clamped_and_solves_the_equation(epsilon, j):
    u = constant_eigenfunction(epsilon, j)
    sup = np.abs(u(GRID)).max()
    ends = [u(x, d) for x in (0.0, 1.0) for d in (0, 1)]
    assert np.all(np.abs(ends) <= 1e-12 * sup), ends
    # eps^2 u'''' - u'' = lambda u away from the layers, where the terms
    # are O(lambda) and do not cancel from far larger sizes
    lam = constant_eigenvalue(epsilon, j)
    x = np.linspace(0.25, 0.75, 11)
    residual = epsilon**2 * u(x, 4) - u(x, 2) - lam * u(x)
    assert np.abs(residual).max() <= 1e-12 * lam * sup


def test_solve_mode_one_matches_the_eigenfunction():
    # the bound is fixed before measuring: 100 times the cubic
    # interpolant's error h^4 max|u''''| / 384 for u = cos(pi (x - 1/2))
    # on the exp mesh's interior elements, h about 2/N
    p, n, epsilon = 3, 256, 1e-4
    bound = 100 * (2 / n)**4 * np.pi**4 / 384
    sol = solve(MeshSpec(epsilon=epsilon, beta=1.0, p=p, n_elements=n,
                         kind="exp"),
                resolve_coefficients("const", None, None),
                SolverConfig(k=1))
    u_h = sol.function(GRID)[:, 0]
    u = constant_eigenfunction(epsilon, 1)(GRID)
    scale = (u_h @ u) / (u_h @ u_h)        # least squares, sign included
    assert np.abs(scale * u_h - u).max() <= bound * np.abs(u).max()


@pytest.mark.parametrize("epsilon", [1e-4, 1e-6, 1e-8])
def test_p4_eigenvalue_errors_fall_at_the_proved_order(epsilon):
    # the window is fixed before measuring: [r - 0.3, r + 1.3] around the
    # proved order r = 2 (p - 1) of the relative error against dof
    p, modes = 4, 3
    r = 2 * (p - 1)
    exact = np.array([constant_eigenvalue(epsilon, j)
                      for j in range(1, modes + 1)])
    dofs, errors = [], []
    for n in (8, 16, 32, 64):
        sol = solve(MeshSpec(epsilon=epsilon, beta=1.0, p=p, n_elements=n,
                             kind="exp"),
                    resolve_coefficients("const", None, None),
                    SolverConfig(k=modes))
        dofs.append(sol.space.n_free)
        errors.append(sol.spectrum.eigenvalues / exact - 1.0)
    errors = np.array(errors)
    # a conforming method has lambda_h >= lambda, so a negative error is a
    # rung at the rounding floor, where no order can be fitted
    assert np.all(errors > 0.0), errors
    orders = [fit_slope(dofs, errors[:, j]).slope for j in range(modes)]
    assert all(r - 0.3 <= order <= r + 1.3 for order in orders), orders
