"""Exception types shared across the package: DomainError for every
input the package rejects, NonFiniteGap for a value that overflows or
is not finite.  Both are ClarksonErrors, and so ValueErrors; the CLI
exits 2 on either."""


class ClarksonError(ValueError):
    """Base class for all domain errors raised by this package."""


class DomainError(ClarksonError):
    """An input the library rejects; the message says what was wrong."""


class NonFiniteGap(ClarksonError):
    """A gap or value that overflowed or is not finite."""
