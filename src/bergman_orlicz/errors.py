"""Exception taxonomy shared by every module.

Exit-code mapping used by the CLI: ParameterError/DomainError -> 2,
AccuracyError/DivergenceError/NotInSpaceError -> 3, anything else -> 1.
"""


class BergmanOrliczError(Exception):
    """Base class for all library errors."""

    kind = "internal"


class ParameterError(BergmanOrliczError):
    """A parameter violates a documented precondition."""

    kind = "parameter"


class DomainError(BergmanOrliczError):
    """A geometric object leaves its admissible domain (e.g. a disk touching
    the boundary of the half-plane)."""

    kind = "domain"


class DivergenceError(BergmanOrliczError):
    """An integral or sum was detected to diverge."""

    kind = "divergence"


class AccuracyError(BergmanOrliczError):
    """A quadrature or refinement loop could not meet its tolerance."""

    kind = "accuracy"


class OverflowBracketError(BergmanOrliczError):
    """A bracketing search exhausted its doubling budget."""

    kind = "overflow"


class ConditioningError(BergmanOrliczError):
    """A linear solve is too ill-conditioned to trust."""

    kind = "conditioning"


class NotInSpaceError(BergmanOrliczError):
    """The function has no finite Luxembourg norm for the requested space."""

    kind = "not_in_space"
