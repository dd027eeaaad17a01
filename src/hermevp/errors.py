"""Exception types shared across the package.

Every error carries a distinct process exit code so the command line tool can
signal failure families to scripts (0 is success, 1 is reserved for unexpected
crashes).
"""

from __future__ import annotations


class HermevpError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 10


class InvalidSpec(HermevpError):
    """A mesh or solver specification failed validation."""

    exit_code = 2


class RegionOverlap(HermevpError):
    """The graded layer regions of an eXp mesh would reach past x = 1/2."""

    exit_code = 3


class NoConvergence(HermevpError):
    """Iterative eigensolver hit its iteration cap before the tolerance."""

    exit_code = 4


class AssumptionViolated(HermevpError):
    """A study was requested outside its regime (e.g. eps >= 1/N)."""

    exit_code = 5


class KTooLarge(HermevpError):
    """More eigenpairs requested than the discrete space carries."""

    exit_code = 6


class WrongMeshKind(HermevpError):
    """An operation specific to one mesh family got another kind."""

    exit_code = 7


class CoefficientViolation(HermevpError):
    """a(x) <= 0 or b(x) < 0 detected at a quadrature point."""

    exit_code = 8


class DimensionMismatch(HermevpError):
    """Vector or matrix dimensions do not line up."""

    exit_code = 9


class ZeroVector(HermevpError):
    """An operation that divides by a norm received a zero vector."""

    exit_code = 11


class NotPositiveDefinite(HermevpError):
    """Cholesky factorization failed (matrix or shifted matrix not SPD)."""

    exit_code = 12


class DegreeTooLow(HermevpError):
    """Element degree below the C1 minimum of 3."""

    exit_code = 13


class BadGrouping(HermevpError):
    """Interpolation group size does not divide the number of elements."""

    exit_code = 14


class AmbiguousSign(HermevpError):
    """Sign alignment failed because the two vectors are L2-orthogonal."""

    exit_code = 16


class InvalidLayerWidth(HermevpError):
    """Layer width for the discrete max norm outside (0, 1/2)."""

    exit_code = 17


class TooFewPoints(HermevpError):
    """Not enough points for a least-squares slope fit."""

    exit_code = 18


class NonpositiveError(HermevpError):
    """Log-log fit received an error value <= 0."""

    exit_code = 19
