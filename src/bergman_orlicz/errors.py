"""Exception taxonomy shared by every module.

Exit-code mapping used by the CLI: ParameterError/DomainError -> 2,
AccuracyError/DivergenceError/NotInSpaceError -> 3, anything else -> 1.
"""


class BergmanOrliczError(Exception):
    """Base class for all library errors."""


class ParameterError(BergmanOrliczError):
    """A parameter violates a documented precondition."""


class DomainError(BergmanOrliczError):
    """A geometric object leaves its admissible domain (e.g. a disk touching
    the boundary of the half-plane)."""


class DivergenceError(BergmanOrliczError):
    """An integral or sum was detected to diverge."""


class AccuracyError(BergmanOrliczError):
    """A quadrature or refinement loop could not meet its tolerance."""


class OverflowBracketError(BergmanOrliczError):
    """A bracketing search exhausted its doubling budget."""


class ConditioningError(BergmanOrliczError):
    """A linear solve is too ill-conditioned to trust."""


class NotInSpaceError(BergmanOrliczError):
    """The function has no finite Luxembourg norm for the requested space."""
