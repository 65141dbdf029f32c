"""Exception types shared across the package.

Every error that a caller might reasonably want to catch derives from
DomainError, so the CLI can map them to named diagnostics uniformly.
"""


class DomainError(Exception):
    """Base class for all mathematical / domain failures."""


class EffortExceeded(DomainError):
    """A factorization (or anything built on one) ran out of its effort budget.

    Raised instead of silently returning an unfactored or uncertified
    cofactor, so exactness guarantees are never quietly weakened.
    """


class FieldMismatch(DomainError):
    """Two elements of different cubic fields were combined."""


class NotBinomial(DomainError):
    """An element whose square is not of the binomial form a - b*w."""


class InvalidPoint(DomainError):
    """A point that is not on the curve it was used with, or is otherwise unusable."""


class AlphaIsSquare(DomainError):
    """The element is already a square, so no quadratic extension is generated."""


class ZeroElement(DomainError):
    """The zero element was passed where a nonzero element is required."""
