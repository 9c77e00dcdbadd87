"""Foundational types: labeled event sets, exact rational marginals, terrace
distributions and bitmask subset indexing.

Each type checks its own invariant once, when it is built, and code that holds
one does not check it again: an `EventSet` has 1 to MAX_EVENTS distinct labels
(`check_event_count` is the one size guard, for every cap), a `MarginalSet` one
probability in [0, 1] per event, and a `TerraceDistribution` 2^N nonnegative
integer numerators summing to its one denominator.  `make_event_set` and
`default_event_set` only build the labels' tuple, and `default_event_set` runs
the size guard on n first; `validate_marginals` reads text and floats through
`parse_probability` and turns other numbers into `Fraction`s.
The value types of the package are immutable `__slots__` classes on `Value`,
equal when their class and fields are.

Probabilities are carried as `fractions.Fraction` everywhere, and text is read
by `parse_probability` alone; decimals are a rendering concern only.  Subsets
of an N-event set are plain ints in [0, 2^N): bit i corresponds to the i-th
event in input order.  Event order is never silently re-sorted; reordering is
an explicit transform (see :mod:`halfrare.transforms`).
"""

from __future__ import annotations

import math
import re
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Sequence

from .errors import (
    DuplicateLabel,
    EmptySet,
    IndexOutOfRange,
    InvalidLabel,
    LengthMismatch,
    NotHalfRare,
    ProbabilityOutOfRange,
    TooLarge,
)

#: Dense power-set storage cap: full 2^N tables are only built for N <= 20.
MAX_EVENTS = 20

#: Most digits a probability's text may carry: decimal places, exponent
#: magnitude, or either side of a/b.  The star table's denominator, a product
#: of at most MAX_EVENTS such denominators, then stays under Python's
#: 4,300-digit limit for printing an integer.
MAX_PROBABILITY_DIGITS = 200

#: Decimal places `format_decimal` rounds to unless told otherwise.
DEFAULT_DIGITS = 6

_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f]")
_WHOLE = re.compile(r"[+-]?(\d*)")

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class Value:
    """Base of the immutable value types.  A subclass names its fields in
    `__slots__`, after those of its bases; they are set once, by position or
    keyword, and then checked by `__post_init__`, also when a value is
    unpickled or copied.  Values are equal, and hash alike, when their class
    and field tuples are; the repr is the one a dataclass prints."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def __init__(self, *args, **kwargs) -> None:
        values = {**dict(zip(self._fields, args)), **kwargs}
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for name in self._fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def check_event_count(n: int, cap: int = MAX_EVENTS, what: str = "dense") -> None:
    """The size guard: N events fit the `what` path only for N <= `cap`."""
    if n > cap:
        raise TooLarge(f"N={n} exceeds the {what} cap {cap}")


class EventSet(Value):
    """An ordered set of 1 to MAX_EVENTS distinctly labeled events."""

    __slots__ = ("labels",)

    def __post_init__(self) -> None:
        if not self.labels:
            raise EmptySet("an event set needs at least one event")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel(f"labels are not pairwise distinct: {self.labels}")
        check_event_count(len(self.labels))
        for lab in self.labels:
            if _CONTROL.search(lab):
                raise InvalidLabel(f"label {lab!r} holds a control character")

    @property
    def n(self) -> int:
        return len(self.labels)


def make_event_set(labels: Sequence[str]) -> EventSet:
    return EventSet(tuple(labels))


def default_event_set(n: int) -> EventSet:
    """Events auto-named x1..xN; a too-large n is rejected before any label
    is built."""
    check_event_count(n)
    return EventSet(tuple(f"x{i + 1}" for i in range(n)))


def check_subset(x: int, n: int) -> None:
    if not (isinstance(x, int) and 0 <= x < (1 << n)):
        raise IndexOutOfRange(f"subset index {x} not in [0, 2^{n})")


def indicator_string(x: int, n: int) -> str:
    """N-character '0'/'1' word; position i shows membership of the i-th event."""
    check_subset(x, n)
    return format(x, f"0{n}b")[::-1]


def parse_probability(text: str) -> Fraction:
    """Parse a decimal ("0.45") or fraction ("9/20") string exactly.

    The size is checked on the text, before the `Fraction` is built: a decimal
    may have at most MAX_PROBABILITY_DIGITS places, integer digits as written,
    and exponent magnitude, a fraction at most that many digits on either side.
    Digit separators ("0.4_5") are rejected on every Python.  Every failure is
    a ValueError quoting at most the first 24 characters."""
    text = text.strip()
    num, slash, den = text.partition("/")
    if slash:
        digits = max(len(num), len(den))
    else:
        try:
            exponent = Decimal(text).as_tuple().exponent
        except InvalidOperation:
            exponent = None  # not a number: Fraction rejects it below
        # Places or exponent, and the integer digits as written: 1e200 has one.
        if isinstance(exponent, int):  # not inf or nan either
            digits = max(abs(exponent), len(_WHOLE.match(text)[1]))
        else:
            digits = 0
    if digits > MAX_PROBABILITY_DIGITS:
        raise ValueError(f"{text[:24]!r} exceeds {MAX_PROBABILITY_DIGITS} digits")
    try:
        if "_" in text:
            # Digit separators: Fraction takes them only from Python 3.11 on.
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text[:24]!r} is not a decimal or a fraction a/b, b > 0") from None


class MarginalSet(Value):
    """Per-event probabilities, ints or `Fraction`s in [0, 1], for an ordered event set."""

    __slots__ = ("events", "probs")

    def __post_init__(self) -> None:
        if len(self.probs) != self.events.n:
            raise LengthMismatch(f"{len(self.probs)} probabilities for {self.events.n} events")
        for i, p in enumerate(self.probs):
            if not isinstance(p, (int, Fraction)):
                raise TypeError(f"probability #{i} is a {type(p).__name__}, not exact")
            if not ZERO <= p <= ONE:
                raise ProbabilityOutOfRange(i, p)

    @property
    def n(self) -> int:
        return self.events.n

    def is_half_rare(self) -> bool:
        p = self.probs
        return p[0] <= HALF and all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def validate_marginals(events: EventSet, probs: Sequence) -> MarginalSet:
    return MarginalSet(events, tuple(
        parse_probability(str(p)) if isinstance(p, (str, float)) else Fraction(p) for p in probs))


def marginals_from_values(values: Sequence) -> MarginalSet:
    """Convenience: auto-named events with probabilities given as Fractions,
    ints, or strings and floats, whose text `parse_probability` reads: 0.1 is 1/10."""
    probs = tuple(values)
    return validate_marginals(default_event_set(len(probs)), probs)


class HalfRareMarginalSet(MarginalSet):
    """A MarginalSet with 1/2 >= p_1 >= p_2 >= ... >= p_N.

    The most probable event is always the first one by construction.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.is_half_rare():
            raise NotHalfRare(f"probabilities violate the half-rare order: {self.probs}")


def over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The numerators of `values` over their least common denominator D, and
    D: sums and comparisons in integers, with no gcd per term."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class TerraceDistribution(Value):
    """A joint distribution of the events: the probability that exactly the
    events in X occur is `numerators[X] / den`, for every subset X.  The
    numerators are nonnegative ints summing to `den`, so every atom lies in
    [0, 1] and the atoms sum to 1 exactly."""

    __slots__ = ("events", "numerators", "den")

    def __post_init__(self) -> None:
        if len(self.numerators) != 1 << self.events.n:
            raise LengthMismatch(
                f"{len(self.numerators)} atoms for N={self.events.n} (need {1 << self.events.n})"
            )
        total = sum(self.numerators)
        if not isinstance(total, int):  # an int only when every numerator is one
            raise TypeError(f"numerators must be ints, but sum to a {type(total).__name__}")
        if not isinstance(self.den, int):
            raise TypeError(f"den must be an int, not a {type(self.den).__name__}")
        if min(self.numerators) < 0:
            x = next(x for x, a in enumerate(self.numerators) if a < 0)
            raise ProbabilityOutOfRange(x, Fraction(self.numerators[x], self.den))
        if total != self.den or total == 0:
            raise ProbabilityOutOfRange("total", f"{total}/{self.den}")

    @property
    def atoms(self) -> tuple[Fraction, ...]:
        """The atoms as `Fraction`s, each reduced."""
        return tuple(Fraction(a, self.den) for a in self.numerators)

    def __getitem__(self, x: int) -> Fraction:
        check_subset(x, self.events.n)
        return Fraction(self.numerators[x], self.den)

    def induced_marginals(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(sum(a for x, a in enumerate(self.numerators) if (x >> i) & 1), self.den)
            for i in range(self.events.n)
        )


def format_exact(nums: Sequence[int], den: int) -> list[str]:
    """Each num/den (den > 0) in lowest terms, as `str(Fraction(num, den))`
    prints it: "9/20", "0", "1"."""
    gcd = math.gcd
    return [str(num // g) if (g := gcd(num, den)) == den else f"{num // g}/{den // g}"
            for num in nums]


def format_decimal(nums: Sequence[int], den: int, digits: int = DEFAULT_DIGITS) -> list[str]:
    """Each num/den, a probability (0 <= num <= den), rounded half to even at
    `digits` places as `round(Fraction(num, den) * 10**digits)` rounds: "0", "1",
    or "0." and at most `digits` digits, trailing zeros trimmed."""
    scale = 10**digits
    twice_scale, twice_den = 2 * scale, 2 * den
    texts = []
    for num in nums:
        # Half up; a tie leaves no remainder and goes down to the even q.
        q, rest = divmod(twice_scale * num + den, twice_den)
        if not rest and q & 1:
            q -= 1
        texts.append("0." + str(q).zfill(digits).rstrip("0") if 0 < q < scale else "1" if q else "0")
    return texts
