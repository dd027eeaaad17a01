"""Property tests: every drawn problem either raises a documented
HermevpError or solves to a finite ascending spectrum that the dense
reduction oracle.dense_reduce reproduces."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hermevp import (HermevpError, MeshKind, MeshSpec, SolverConfig,
                     assemble, build_mesh, shape_table, solve_smallest)
from hermevp.cli import resolve_coefficients
from oracle import dense_reduce


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
        mesh = build_mesh(MeshSpec(epsilon=epsilon, beta=1.0, p=p,
                                   n_elements=n, kind=kind))
        coeffs = resolve_coefficients(preset, None, None, epsilon)
        K, M, _ = assemble(mesh, shape_table(p), coeffs)
        spec = solve_smallest(K, M, SolverConfig(k=k))
    except HermevpError:
        return
    lams = spec.eigenvalues
    assert len(lams) == k
    assert np.all(np.isfinite(lams))
    assert np.all(np.diff(lams) >= 0.0)
    dense, _ = dense_reduce(K, M, k)
    assert np.max(np.abs(lams - dense) / np.abs(dense)) < 1e-12
