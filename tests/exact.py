"""Exact eigenvalues of the constant-coefficient problem, a test oracle.

With a = 1 and b = 0 the problem eps^2 u'''' - u'' = lambda u on (0, 1)
with u = u' = 0 at both ends has closed-form eigenpairs.  Writing the
roots of eps^2 r^4 - r^2 = lambda as r = +-ik and r = +-m gives

    m^2 - k^2 = 1 / eps^2,        lambda = eps^2 k^2 m^2,

and the clamped ends leave one equation in k for each symmetry about
x = 1/2.  Modes even about 1/2 solve k tan(k/2) = -m tanh(m/2), odd ones
k cot(k/2) = m coth(m/2); they are solved here in the pole-free forms

    k sin(k/2) + m tanh(m/2) cos(k/2) = 0      (even),
    k cos(k/2) - m coth(m/2) sin(k/2) = 0      (odd).

For small eps mode j has k just above j pi (about 2 pi eps above pi for
j = 1), where Newton from a nearby start can diverge, so the root is
bracketed on [j pi, j pi + 0.5] and found with mpmath's Anderson-Bjorck
method.  Mode j is even for odd j.
"""

import mpmath

DIGITS = 40


def constant_eigenvalue(epsilon: float, j: int) -> float:
    """lambda_j of eps^2 u'''' - u'' = lambda u, clamped, j = 1, 2, ...,
    solved at DIGITS significant digits and rounded to a double."""
    with mpmath.workdps(DIGITS):
        eps = mpmath.mpf(epsilon)

        def m_of(k):
            return mpmath.sqrt(k**2 + 1 / eps**2)

        def even(k):
            m = m_of(k)
            return (k * mpmath.sin(k / 2)
                    + m * mpmath.tanh(m / 2) * mpmath.cos(k / 2))

        def odd(k):
            m = m_of(k)
            return (k * mpmath.cos(k / 2)
                    - m * mpmath.coth(m / 2) * mpmath.sin(k / 2))

        k = mpmath.findroot(even if j % 2 else odd,
                            (j * mpmath.pi, j * mpmath.pi + 0.5),
                            solver="anderson")
        return float(eps**2 * k**2 * m_of(k)**2)
