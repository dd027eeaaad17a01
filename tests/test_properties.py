"""Property tests: every drawn problem either raises a documented
HermevpError or solves to a finite ascending spectrum that the dense
reduction oracle.dense_reduce reproduces; assembly and evaluation equal
their plainer oracle forms bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermevp import (CoefficientSet, HermevpError, MeshKind, MeshSpec,
                     SolverConfig, Space, assemble, build_mesh,
                     solve_smallest)
from hermevp.cli import resolve_coefficients
from hermevp.element import piecewise_eval
from oracle import dense_reduce, full_matrix_bands, per_order_eval


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(p=st.integers(3, 6),
       n=st.sampled_from([1, 2, 4, 8, 16, 32]),
       log_eps=st.floats(-16.0, 0.0),
       kind=st.sampled_from(list(MeshKind)),
       preset=st.sampled_from(["expx", "const"]),
       k=st.integers(1, 6))
def test_solve_or_documented_error(p, n, log_eps, kind, preset, k):
    epsilon = 10.0**log_eps
    try:
        space = Space(build_mesh(MeshSpec(epsilon=epsilon, beta=1.0, p=p,
                                          n_elements=n, kind=kind)), p)
        coeffs = resolve_coefficients(preset, None, None)
        K, M = assemble(space, coeffs)
        spec = solve_smallest(K, M, SolverConfig(k=k))
    except HermevpError:
        return
    lams = spec.eigenvalues
    assert len(lams) == k
    assert np.all(np.isfinite(lams))
    assert np.all(np.diff(lams) >= 0.0)
    dense, _ = dense_reduce(K, M, k)
    assert np.max(np.abs(lams - dense) / np.abs(dense)) < 1e-12


@st.composite
def meshes(draw):
    """Every N up to 1024 that the drawn kind accepts, at p in 3..8."""
    kind = draw(st.sampled_from(list(MeshKind)))
    n = (draw(st.integers(2, 1024)) if kind is MeshKind.UNIFORM
         else 4 * draw(st.integers(2, 256)))
    return build_mesh(MeshSpec(epsilon=10.0**draw(st.floats(-12.0, -3.0)),
                               beta=1.0, p=draw(st.integers(3, 8)),
                               n_elements=n, kind=kind))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(mesh=meshes(), preset=st.sampled_from(["expx", "const"]),
       log_scale=st.floats(-8.0, 8.0))
def test_assembly_equals_full_matrix_oracle(mesh, preset, log_scale):
    # the kept-triangle integrals and their scatter give K and M bit for
    # bit as the full local matrices did
    base = resolve_coefficients(preset, None, None)
    scale = 10.0**log_scale
    coeffs = CoefficientSet(a=lambda x: scale * base.a(x),
                            b=lambda x: scale * base.b(x))
    space = Space(mesh, mesh.spec.p)
    K, M = assemble(space, coeffs)
    k_band, m_band = full_matrix_bands(space, coeffs)
    assert np.array_equal(K.band, k_band)
    assert np.array_equal(M.band, m_band)


@pytest.mark.parametrize("kind", list(MeshKind))
@pytest.mark.parametrize("p", [3, 8])
@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_finest_assembly_equals_full_matrix_oracle(kind, p, scale):
    mesh = build_mesh(MeshSpec(epsilon=1e-8, beta=1.0, p=p,
                               n_elements=1024, kind=kind))
    coeffs = CoefficientSet(a=lambda x: scale * np.exp(x),
                            b=lambda x: scale * x)
    space = Space(mesh, mesh.spec.p)
    K, M = assemble(space, coeffs)
    k_band, m_band = full_matrix_bands(space, coeffs)
    assert np.array_equal(K.band, k_band)
    assert np.array_equal(M.band, m_band)


def assert_eval_matches_oracle(n_coef, n_modes, deriv, with_piece, seed):
    rng = np.random.default_rng(seed)
    breaks = np.cumsum(np.concatenate([[0.0], rng.random(7) + 1e-3]))
    breaks /= breaks[-1]
    mode_axis = () if n_modes is None else (n_modes,)
    coeffs = rng.standard_normal((7, n_coef) + mode_axis)
    if with_piece:
        piece = rng.integers(0, 7, 60)
        x = np.concatenate([rng.random(58), [0.0, 1.0]])
    else:
        piece = None
        x = np.concatenate([breaks, rng.random(50), [-0.5, 1.5]])
    got = piecewise_eval(breaks, coeffs, x, deriv, piece=piece)
    want = per_order_eval(breaks, coeffs, x, deriv, piece=piece)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(n_coef=st.integers(1, 9),
       n_modes=st.one_of(st.none(), st.integers(0, 5)),
       deriv=st.one_of(st.integers(0, 10),
                       st.lists(st.integers(0, 10), min_size=1,
                                max_size=5).map(tuple)),
       with_piece=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_eval_equals_per_order_oracle(n_coef, n_modes, deriv, with_piece,
                                      seed):
    # one gather per coefficient row gives every (order, mode) column bit
    # for bit as a Horner pass per order did, orders above the degree too
    assert_eval_matches_oracle(n_coef, n_modes, deriv, with_piece, seed)


@pytest.mark.parametrize("deriv", [2, (2, 0), (0, 1, 2), (1, 1), (9, 0, 4)],
                         ids=str)
@pytest.mark.parametrize("n_modes", [None, 0, 1, 5])
@pytest.mark.parametrize("with_piece", [False, True])
def test_eval_equals_per_order_oracle_named_orders(deriv, n_modes,
                                                   with_piece):
    assert_eval_matches_oracle(4, n_modes, deriv, with_piece, seed=3)
    assert_eval_matches_oracle(6, n_modes, deriv, with_piece, seed=4)
