"""Exact eigenpairs of the constant-coefficient problem, a test oracle.

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

With y = x - 1/2, an even mode is cos(k y) + C cosh(m y) and an odd one
sin(k y) + D sinh(m y), with C and D set by u(1) = 0.  The layer terms
are written with e^{-m x} and e^{-m (1 - x)}, which lie in [0, 1], so
they cannot overflow at m ~ 1/eps:

    even:  cos(k y) - cos(k/2) (e^{-m (1-x)} + e^{-m x}) / (1 + e^{-m}),
    odd:   sin(k y) - sin(k/2) (e^{-m (1-x)} - e^{-m x}) / (1 - e^{-m}).
"""

import mpmath
import numpy as np

DIGITS = 40


def constant_eigenvalue(epsilon: float, j: int) -> float:
    """lambda_j of eps^2 u'''' - u'' = lambda u, clamped, j = 1, 2, ...,
    solved at DIGITS significant digits and rounded to a double."""
    with mpmath.workdps(DIGITS):
        k, m = wavenumbers(epsilon, j)
        return float(mpmath.mpf(epsilon)**2 * k**2 * m**2)


def constant_eigenfunction(epsilon: float, j: int):
    """Mode j's eigenfunction, its trigonometric part of unit amplitude,
    as a function u(x, deriv=0) on numpy arrays.

    k, m and the layer's coefficient are rounded to doubles from DIGITS
    digits.  Near k = j pi, cos(k/2) or sin(k/2) is O(eps); taken from a
    rounded k it would lose about log10(1/eps) digits, which the factor
    m ~ 1/eps carries into the slope at the ends."""
    even = j % 2 == 1
    sign = 1.0 if even else -1.0
    with mpmath.workdps(DIGITS):
        k, m = wavenumbers(epsilon, j)
        half = mpmath.cos(k / 2) if even else mpmath.sin(k / 2)
        coeff = float(half / (1 + sign * mpmath.exp(-m)))
        k, m = float(k), float(m)
    # sin(t) = cos(t - pi/2), and the d-th derivative of cos(k y + phase)
    # is k^d cos(k y + phase + d pi/2)
    phase = 0.0 if even else -np.pi / 2

    def u(x, deriv=0):
        x = np.asarray(x, dtype=float)
        trig = k**deriv * np.cos(k * (x - 0.5) + phase + deriv * np.pi / 2)
        layer = (m**deriv * np.exp(-m * (1.0 - x))
                 + sign * (-m)**deriv * np.exp(-m * x))
        return trig - coeff * layer

    return u


def wavenumbers(epsilon: float, j: int):
    """Mode j's k and m as mpmath numbers at the working precision."""
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
    return k, m_of(k)
