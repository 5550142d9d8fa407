"""Exception types shared across the package."""


class ClarksonError(ValueError):
    """Base class for all domain errors raised by this package."""


class EmptyVector(ClarksonError):
    pass


class NonFiniteEntry(ClarksonError):
    def __init__(self, index: int):
        super().__init__(f"non-finite entry at index {index}")
        self.index = index


class NegativeEntry(ClarksonError):
    def __init__(self, index: int):
        super().__init__(f"negative entry at index {index}")
        self.index = index


class LengthMismatch(ClarksonError):
    pass


class ExponentOutOfRange(ClarksonError):
    pass


class RegimeViolation(ClarksonError):
    pass


class DominanceViolation(ClarksonError):
    def __init__(self, index: int):
        super().__init__(f"dominance violated at index {index}")
        self.index = index


class DomainError(ClarksonError):
    pass


class TooLarge(ClarksonError):
    pass


class ConstraintMismatch(ClarksonError):
    pass


class EmptyGrid(ClarksonError):
    pass


class NonFiniteGap(ClarksonError):
    pass
