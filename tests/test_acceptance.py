"""End-to-end acceptance checks for the whole pipeline.

Nine numbered criteria cover benchmark reproduction, convergence orders,
robustness in the perturbation parameter, interpolation rates, min-max
monotonicity, oracle equivalence, the reduced-problem limit, and
higher-mode behavior.  Every test funnels through report(), which prints
one "[criterion n] PASS/FAIL" line with the measured numbers and the
window or ratio it checks, so a plain pytest -v run doubles as the
acceptance protocol.

The paper proves upper bounds, uniform in eps: for degree p the
eigenvalue error is O(dof^-2(p-1)) and the energy error O(dof^-(p-1)).
A fitted order well below the proved order r contradicts the claim; an
order above it does not, and on the N=16..128 ladder the method shows
one.  Each eigenvalue and energy window spans [r - SLACK, r + 1 + SLACK],
with the upper edge at the order of the fastest part of the error the
ladder can see:

- energy error (criteria 3, 4): |||v|||^2 = eps^2 |v|_2^2 + |v|_1^2 +
  ||v||^2.  The eps |.|_2 part decays at order p-1 with a size that
  scales like sqrt(eps); the H1 part decays at order p.  For small eps
  the H1 part leads on the whole ladder (at eps=1e-8 the order p-1 part
  takes over only near N=900), so the fit lands between p-1 and p.  It
  cannot exceed p: the H1 part is at least c N^-p because the
  eigenfunction is not a piecewise polynomial.
- eigenvalue error (criteria 2, 4): lambda_h - lambda =
  |||u - u_h|||_a^2 - lambda ||u - u_h||^2, the square of the energy
  error, so its order lies between 2(p-1) and 2p.
- interpolation errors of exp(-x/eps) (criterion 5) keep two-sided
  windows around their orders p+1, p and p-1.  The max error fits about
  p+2 on this ladder: with eps N < 1 its largest value sits on the first
  interior element next to x_{N/4-1}, where the Hermite interpolant
  carries the slope eps^-1 (4/N)^(p+1), and it grows like 1/eps.  Which
  of the method and the window is wrong needs the paper's interpolation
  lemma and grading constant, which PAPER.md does not hold, so that check
  stays as written.

Uniformity in eps (criterion 4) is checked as a bound too.  At each N the
largest mode-1 error over the eps ladder, divided by the error at the
largest eps, must stay below 10: errors may shrink as eps shrinks but an
eps-dependent constant such as C/eps fails.  And the worst mode-1 error
over eps, times dof^r, must stay within a factor 10 across the N ladder,
so the uniform bound decays at the proved rate.

The expensive piece, the four epsilon ladders with their fine reference
solves at N=1024, is a module-scoped fixture shared by several criteria.
"""

import numpy as np
import pytest

from hermevp import (CoefficientSet, MeshSpec, SolverConfig, Space, assemble,
                     build_mesh, convergence_study, element_matrices,
                     interp_rate_study, shape_table, solve, solve_smallest)
from hermevp.cli import BENCHMARK_EIGENVALUES
from oracle import pencil_eigenvalues
from test_assembly import symbolic_element_matrices

EPS_LADDER = (1e-3, 1e-4, 1e-6, 1e-8)
N_LADDER = (16, 32, 64, 128)
P = 3

# Rate windows, all derived from P; see the module docstring.
SLACK = 0.3
LAMBDA_ORDER = 2 * (P - 1)
ENERGY_ORDER = P - 1
SPREAD_THRESHOLD = 10.0


def order_window(proved, fastest):
    """Fitted orders accepted: [proved - SLACK, fastest + SLACK]."""
    return proved - SLACK, fastest + SLACK


LAMBDA_WINDOW = order_window(LAMBDA_ORDER, 2 * P)
ENERGY_WINDOW = order_window(ENERGY_ORDER, P)

# First eigenvalue of eps^2 u'''' - u'' = lambda u at eps=1e-6, clamped,
# from an arbitrary-precision root of the characteristic equation.
LAMBDA1_CONST_EPS1E6 = 9.869643879723


def expx_coeffs():
    return CoefficientSet(a=np.exp, b=lambda x: x)


def const_coeffs():
    return CoefficientSet(a=lambda x: np.ones_like(x),
                          b=lambda x: np.zeros_like(x))


def layer_spec(epsilon, n, kind="exp", p=P):
    return MeshSpec(epsilon=epsilon, beta=1.0, p=p, n_elements=n, kind=kind)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def in_window(order, window):
    return window[0] <= order <= window[1]


def show(window):
    return f"[{window[0]:g}, {window[1]:g}]"


def eps_growth(studies, metric):
    """Largest, over the N ladder, of the worst mode-1 error over all
    studies at that N divided by the error at the largest eps.  Errors
    that shrink with eps give 1; a constant C/eps gives 1/eps ratios."""
    ratios = []
    for n in N_LADDER:
        errs = {eps: getattr(r, metric) for eps, s in studies.items()
                for r in s.records if r.N == n and r.mode == 1}
        ratios.append(max(errs.values()) / errs[max(errs)])
    return max(ratios)


def scaled_worst_spread(studies, metric, order):
    """Largest over smallest, across the N ladder, of dof^order times the
    worst mode-1 error over all studies at that N.  A bound C dof^-order
    with C independent of eps keeps this near 1."""
    scaled = []
    for n in N_LADDER:
        rows = [r for s in studies.values() for r in s.records
                if r.N == n and r.mode == 1]
        scaled.append(max(getattr(r, metric) for r in rows)
                      * rows[0].dof ** order)
    return max(scaled) / min(scaled)


@pytest.fixture(scope="module")
def studies():
    # each study solves its own two-mode reference at N=1024
    return {eps: convergence_study(layer_spec(eps, 1024), N_LADDER,
                                   expx_coeffs(), SolverConfig(k=2))
            for eps in EPS_LADDER}


def solve_eigenvalues(epsilon, n, kind, coeffs, k, p=P):
    return solve(layer_spec(epsilon, n, kind, p), coeffs,
                 SolverConfig(k=k)).spectrum.eigenvalues


class TestCriterion1Benchmark:
    def test_five_modes_at_finest_resolution(self):
        lams = solve_eigenvalues(1e-6, 32, "exp", expx_coeffs(), k=5)
        tols = (0.05, 0.05, 0.5, 0.5, 0.5)
        devs = [100.0 * abs(lams[m] - BENCHMARK_EIGENVALUES[m + 1][-1])
                / BENCHMARK_EIGENVALUES[m + 1][-1] for m in range(5)]
        ok = all(d <= t for d, t in zip(devs, tols))
        detail = ("deviations % = "
                  + ", ".join(f"{d:.4f}" for d in devs)
                  + " (tolerances 0.05, 0.05, 0.5, 0.5, 0.5)")
        assert report(1, ok, detail), detail


class TestCriterion2EigenvalueRate:
    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_lambda_error_order_vs_dof(self, studies, eps):
        s1 = studies[eps].order(1, "lambda_err_pct").slope
        s2 = studies[eps].order(2, "lambda_err_pct").slope
        ok = in_window(s1, LAMBDA_WINDOW) and in_window(s2, LAMBDA_WINDOW)
        detail = (f"eps={eps:g}: lambda error orders {s1:.3f}, {s2:.3f} "
                  f"(window {show(LAMBDA_WINDOW)})")
        assert report(2, ok, detail), detail


class TestCriterion3EnergyRate:
    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_energy_error_order_vs_dof(self, studies, eps):
        s = studies[eps].order(1, "energy_err_pct").slope
        ok = in_window(s, ENERGY_WINDOW)
        detail = (f"eps={eps:g}: energy error order {s:.3f} "
                  f"(window {show(ENERGY_WINDOW)})")
        assert report(3, ok, detail), detail


class TestCriterion4EpsilonRobustness:
    @pytest.mark.parametrize("eps", EPS_LADDER)
    def test_orders_hold_for_every_epsilon(self, studies, eps):
        s1 = studies[eps].order(1, "lambda_err_pct").slope
        s2 = studies[eps].order(2, "lambda_err_pct").slope
        se = studies[eps].order(1, "energy_err_pct").slope
        ok = (in_window(s1, LAMBDA_WINDOW) and in_window(s2, LAMBDA_WINDOW)
              and in_window(se, ENERGY_WINDOW))
        detail = (f"eps={eps:g}: lambda orders {s1:.3f}, {s2:.3f} "
                  f"({show(LAMBDA_WINDOW)}), energy order {se:.3f} "
                  f"({show(ENERGY_WINDOW)})")
        assert report(4, ok, detail), detail

    def test_per_resolution_spread_below_10x(self, studies):
        lam_eps = eps_growth(studies, "lambda_err_pct")
        energy_eps = eps_growth(studies, "energy_err_pct")
        lam = scaled_worst_spread(studies, "lambda_err_pct", LAMBDA_ORDER)
        energy = scaled_worst_spread(studies, "energy_err_pct", ENERGY_ORDER)
        ok = all(v < SPREAD_THRESHOLD
                 for v in (lam_eps, energy_eps, lam, energy))
        detail = (f"worst-over-eps error over the eps={max(studies):g} "
                  f"error at each N: lambda {lam_eps:.2f}x, energy "
                  f"{energy_eps:.2f}x; spread over N of the worst-over-eps "
                  f"error times dof^r: lambda {lam:.2f}x (r={LAMBDA_ORDER}), "
                  f"energy {energy:.2f}x (r={ENERGY_ORDER}) "
                  f"(threshold {SPREAD_THRESHOLD:g}x)")
        assert report(4, ok, detail), detail


class TestCriterion5InterpolationRates:
    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    @pytest.mark.parametrize("metric,target", [
        ("max_err", P + 1.0), ("max_err_d1", float(P)),
        ("scaled_h2_err", P - 1.0),
    ])
    def test_layer_function_orders(self, eps, metric, target):
        rep = interp_rate_study("exp", eps, 1.0, P, N_LADDER)
        slope = rep.order(metric).slope
        window = order_window(target, target)
        ok = in_window(slope, window)
        detail = (f"eps={eps:g}, {metric}: fitted order {slope:.3f} "
                  f"(window {show(window)})")
        assert report(5, ok, detail), detail


class TestCriterion6MinMaxMonotonicity:
    @pytest.mark.parametrize("preset,make", [
        ("expx", expx_coeffs), ("const", const_coeffs),
    ])
    def test_nested_uniform_refinement(self, preset, make):
        eps, k = 1e-2, 5
        ladder = (8, 16, 32, 64)
        lams = np.array([solve_eigenvalues(eps, n, "uniform", make(), k)
                         for n in ladder])
        ref = solve_eigenvalues(eps, 256, "uniform", make(), k)
        shrink = np.diff(lams, axis=0) <= 1e-9 * lams[:-1]
        above = lams >= ref[None, :] * (1.0 - 1e-10)
        ok = bool(np.all(shrink) and np.all(above))
        detail = (f"preset {preset}: non-increasing {bool(np.all(shrink))}, "
                  f"above reference {bool(np.all(above))} "
                  f"(k <= {k}, N in {ladder})")
        assert report(6, ok, detail), detail


class TestCriterion7OracleEquivalence:
    def test_element_matrices_match_symbolic_integration(self):
        p, h, eps = 3, 0.5, 0.7
        shapes = shape_table(p)
        nq = shapes.rule.n_points
        every_pair = np.indices((p + 1, p + 1)).reshape(2, -1)
        k_el, m_el = element_matrices(np.array([h]), shapes, epsilon=eps,
                                      a_vals=np.ones((1, nq)),
                                      b_vals=np.ones((1, nq)),
                                      pairs=every_pair)
        k_loc = k_el[0].reshape(p + 1, p + 1)
        m_loc = m_el[0].reshape(p + 1, p + 1)
        d = np.array([1.0, h, 1.0, h])
        scale = np.outer(d, d)
        k_exact = (eps**2 / h**3 * symbolic_element_matrices(p, 2)
                   + 1.0 / h * symbolic_element_matrices(p, 1)
                   + h * symbolic_element_matrices(p, 0)) * scale
        m_exact = h * symbolic_element_matrices(p, 0) * scale
        dev_k = np.max(np.abs(k_loc - k_exact)) / np.max(np.abs(k_exact))
        dev_m = np.max(np.abs(m_loc - m_exact)) / np.max(np.abs(m_exact))
        ok = dev_k < 1e-12 and dev_m < 1e-12
        detail = (f"single-element vs symbolic: stiffness {dev_k:.2e}, "
                  f"mass {dev_m:.2e} (threshold 1e-12)")
        assert report(7, ok, detail), detail

    def test_solver_matches_dense_brute_force(self):
        problems = [
            ("const eps=1 N=4 uniform", 1.0, 4, "uniform", const_coeffs(), 5),
            ("expx eps=0.1 N=8 uniform", 0.1, 8, "uniform", expx_coeffs(), 5),
            ("expx eps=1e-2 N=16 graded", 1e-2, 16, "exp", expx_coeffs(), 5),
        ]
        worst = 0.0
        for label, eps, n, kind, coeffs, k in problems:
            K, M = assemble(Space(build_mesh(layer_spec(eps, n, kind)), P),
                            coeffs)
            assert K.n <= 50
            lams = solve_smallest(K, M, SolverConfig(k=k)).eigenvalues
            brute = pencil_eigenvalues(K, M, k)
            worst = max(worst, float(np.max(np.abs(lams - brute) / brute)))
        ok = worst < 1e-10
        detail = (f"worst relative deviation from dense eigensolve "
                  f"{worst:.2e} over {len(problems)} problems <= 50 dofs "
                  f"(threshold 1e-10)")
        assert report(7, ok, detail), detail


class TestCriterion8ReducedLimit:
    def test_first_eigenvalue_approaches_pi_squared(self):
        lam = float(solve_eigenvalues(1e-6, 256, "exp",
                                      const_coeffs(), k=1)[0])
        pi2 = np.pi**2
        rel_pi2 = abs(lam - pi2) / pi2
        rel_oracle = abs(lam - LAMBDA1_CONST_EPS1E6) / LAMBDA1_CONST_EPS1E6
        ok = rel_pi2 <= 0.02 and rel_oracle <= 1e-9
        detail = (f"lambda_1 = {lam:.12f}: {100 * rel_pi2:.2e}% from pi^2 "
                  f"(band 2%), {rel_oracle:.2e} relative from the "
                  f"characteristic-equation value")
        assert report(8, ok, detail), detail


class TestCriterion9HigherModeDegradation:
    def test_mode5_error_exceeds_mode1_error(self):
        ref = solve_eigenvalues(1e-6, 1024, "exp", expx_coeffs(), k=5)
        lams = solve_eigenvalues(1e-6, 32, "exp", expx_coeffs(), k=5)
        e1 = abs(lams[0] - ref[0]) / ref[0]
        e5 = abs(lams[4] - ref[4]) / ref[4]
        ok = e5 > e1
        detail = (f"at N=32: relative errors lambda_1 {e1:.2e}, "
                  f"lambda_5 {e5:.2e}")
        assert report(9, ok, detail), detail
