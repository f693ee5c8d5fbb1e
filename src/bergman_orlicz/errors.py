"""Exception taxonomy shared by every module, and the key and number
checks of the JSON wire formats.

Exit-code mapping used by the CLI: ParameterError/DomainError -> 2,
AccuracyError/DivergenceError/OverflowBracketError/NotInSpaceError -> 3,
anything else -> 1.
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


class NotInSpaceError(BergmanOrliczError):
    """The function has no finite Luxembourg norm for the requested space."""


def need(obj, key, what, arity=None):
    """obj[key] of the wire spec `what`, a list of `arity` entries when
    arity is given; ParameterError when it is missing or has another
    length."""
    try:
        item = obj[key]
    except (KeyError, IndexError, TypeError):
        raise ParameterError(
            f"{what} needs the key {key!r}: {obj!r}") from None
    if arity is not None and (not isinstance(item, (list, tuple))
                              or len(item) != arity):
        raise ParameterError(
            f"{what} needs {arity} entries at {key!r}, got {item!r}")
    return item


def number(obj, key, what, default=None):
    """need(obj, key, what) as a float, or `default` when one is given and
    the key is missing; ParameterError unless the value is a real number
    (JSON true and false are not)."""
    if default is not None and isinstance(obj, dict) and key not in obj:
        return default
    item = need(obj, key, what)
    if isinstance(item, bool) or not isinstance(item, (int, float)):
        raise ParameterError(
            f"{what} needs a number at {key!r}, got {item!r}")
    return float(item)
