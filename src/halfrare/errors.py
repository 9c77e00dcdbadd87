"""Exception hierarchy shared across the package."""


class EventologyError(Exception):
    """Base class for all domain errors."""


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
    def __init__(self, index, value):
        text = str(value)  # at most 24 characters of it, so a 200-digit value stays short
        super().__init__(f"probability #{index} = {text[:24]}{'...' * (len(text) > 24)} is outside [0, 1]")
        self.index = index
        self.value = value


class IndexOutOfRange(EventologyError):
    pass


class NotHalfRare(EventologyError):
    pass


class Infeasible(EventologyError):
    """The simplex found an unbounded direction.  The LP starts at a feasible
    vertex of a bounded polytope, so this always signals an implementation bug."""
