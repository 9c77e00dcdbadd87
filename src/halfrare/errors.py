"""Exception hierarchy shared across the package, and `excerpt`, the one way
a message shows input."""

from fractions import Fraction


def excerpt(value) -> str:
    """`value` as a message shows it, one short line whatever it holds: the
    repr of at most the first 24 characters of `str(value)`, then `...` if cut.
    A value that `str` cannot print shows as its type, and an int or Fraction
    past Python's int string limit also as its longer term's bit length."""
    try:
        text = str(value)
    except Exception:
        if isinstance(value, (int, Fraction)):  # past Python's int string limit
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            return f"<{bits}-bit {type(value).__name__}>"
        return f"<unprintable {type(value).__name__}>"
    return f"{text[:24]!r}{'...' * (len(text) > 24)}"


class EventologyError(Exception):
    """Base class for all input errors (the CLI's exit 3); each carries only its message."""


class DuplicateLabel(EventologyError):
    pass


class EmptySet(EventologyError):
    pass


class InvalidLabel(EventologyError):
    pass


class TooLarge(EventologyError):
    pass


class LengthMismatch(EventologyError):
    pass


class ProbabilityOutOfRange(EventologyError):
    pass


class IndexOutOfRange(EventologyError):
    pass


class NotHalfRare(EventologyError):
    pass

