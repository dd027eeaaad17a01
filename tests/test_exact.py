"""The constant-coefficient oracle against its 40-digit values."""

import pytest

from exact import constant_eigenvalue


@pytest.mark.parametrize("epsilon, lambda1", [(1e-6, 9.8696438797228081),
                                              (1e-4, 9.8735544020637798)])
def test_first_eigenvalue_matches_high_precision_value(epsilon, lambda1):
    assert abs(constant_eigenvalue(epsilon, 1) - lambda1) <= 1e-15 * lambda1
