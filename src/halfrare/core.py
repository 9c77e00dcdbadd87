"""Foundational types: labeled event sets, exact rational marginals, terrace
distributions and bitmask subset indexing.

Each type states and checks its own invariant once, when it is built, and
code that holds one does not check it again.  `check_event_count` is the one
size guard, for every cap; `validate_marginals` reads text and floats through
`parse_probability` and turns other numbers into `Fraction`s.  A message shows
input only through `errors.excerpt`.  The value types are immutable
`__slots__` classes on `Value`, a list field stored as a tuple, equal when
their class and fields are.

Probabilities are carried as `fractions.Fraction` everywhere, and text is read
by `parse_probability` alone; decimals are a rendering concern only.  Subsets
of an N-event set are plain ints in [0, 2^N): bit i corresponds to the i-th
event in input order.  Event order is never silently re-sorted; reordering is
an explicit transform (see :mod:`halfrare.transforms`).  Every power-set
table is one fold over the events, `subset_table`, or its `half_tables`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    DuplicateLabel,
    EmptySet,
    IndexOutOfRange,
    InvalidLabel,
    LengthMismatch,
    NotHalfRare,
    ProbabilityOutOfRange,
    TooLarge,
    excerpt,
)

#: Dense power-set storage cap: full 2^N tables are only built for N <= 20.
MAX_EVENTS = 20

#: Most digits a probability's text may carry: either side of a/b, or a
#: decimal's integer digits and its places net of the exponent.  The star
#: table's denominator, a product of at most MAX_EVENTS such denominators, then
#: stays under Python's 4,300-digit limit for printing an integer.
MAX_PROBABILITY_DIGITS = 200

#: Places `format_decimal` rounds to unless told otherwise.
DEFAULT_DIGITS = 6

_NOT_TEXT = re.compile("[\x00-\x1f\x7f-\x9f\ud800-\udfff]")
#: What a probability's text is: a sign, then a/b or a decimal (integer digits, places, exponent).
_PROBABILITY = re.compile(r"[+-]?(?:(\d+)/(\d+)|(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?)")

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class Value:
    """Base of the immutable value types.  A subclass names its fields in
    `__slots__`, after those of its bases; they are set once, by position or
    keyword, a list as a tuple, and then checked by `__post_init__`, also when
    a value is unpickled or copied.  Values are equal, and hash alike, when
    their class and field tuples are; the repr is the one a dataclass prints."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def __init__(self, *args, **kwargs) -> None:
        values = {**dict(zip(self._fields, args)), **kwargs}
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for name in self._fields:
            object.__setattr__(self, name, tuple(v) if isinstance(v := values[name], list) else v)
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
    """An ordered set of 1 to MAX_EVENTS events, labeled by a list or tuple of
    distinct `str`s with no control character or lone surrogate."""

    __slots__ = ("labels",)

    def __post_init__(self) -> None:
        labels = self.labels
        if not isinstance(labels, tuple):  # a list is a tuple by now
            raise InvalidLabel(f"labels must be a list or tuple of str, not {type(labels).__name__}")
        if not labels:
            raise EmptySet("an event set needs at least one event")
        check_event_count(len(labels))
        for i, lab in enumerate(labels):
            if not isinstance(lab, str):
                raise InvalidLabel(f"label #{i} has type {type(lab).__name__}, not str")
            if _NOT_TEXT.search(lab):
                raise InvalidLabel(f"label {excerpt(lab)} is not UTF-8 text without control characters")
        if len(set(labels)) != len(labels):
            repeated = next(lab for i, lab in enumerate(labels) if lab in labels[:i])
            raise DuplicateLabel(f"labels are not pairwise distinct: {excerpt(repeated)} repeats")

    @property
    def n(self) -> int:
        return len(self.labels)


def make_event_set(labels: Sequence[str]) -> EventSet:
    return EventSet(labels)


def default_event_set(n: int) -> EventSet:
    """Events auto-named x1..xN; a too-large n is rejected before any label
    is built."""
    check_event_count(n)
    return EventSet(tuple(f"x{i + 1}" for i in range(n)))


def check_subset(x: int, n: int) -> None:
    if not (isinstance(x, int) and 0 <= x < (1 << n)):
        raise IndexOutOfRange(f"subset index {excerpt(x)} not in [0, 2^{n})")


def subset_table(first, pairs: Sequence[tuple], op: Callable) -> list:
    """`first op f_0 op ... op f_(N-1)`, f_i = pairs[i][X >> i & 1], for every
    subset X in ascending bitmask order: one comprehension per event doubles it."""
    table = [first]
    for pair in pairs:
        table = [op(v, f) for f in pair for v in table]
    return table


def half_tables(first, pairs: Sequence[tuple], op: Callable) -> tuple[list, list]:
    """`subset_table` of the first N // 2 events and of the rest, the one
    statement of that split: no 2^N table is built.  For an associative `op`
    with identity `first`, X's fold is `op(lo[X % len(lo)], hi[X // len(lo)])`."""
    h = len(pairs) // 2
    return subset_table(first, pairs[:h], op), subset_table(first, pairs[h:], op)


def indicator_string(x: int, n: int) -> str:
    """N-character '0'/'1' word; position i shows membership of the i-th event."""
    check_subset(x, n)
    return format(x, f"0{n}b")[::-1]


def parse_probability(text: str) -> Fraction:
    """Parse a decimal ("0.45", "45e-2") or fraction ("9/20") string exactly.

    `_PROBABILITY` alone decides what the text may be, on every Python: "1 / 2"
    and "0.4_5" are not probabilities.  Its groups are checked before the
    `Fraction` is built: at most MAX_PROBABILITY_DIGITS digits on either side
    of a/b, or in a decimal's integer part as written and in its places net of
    the exponent, either way: 1.5e-199 and 1e200 pass, 1.5e-200 and 1e201 do
    not.  Every failure is a ValueError that shows the text through `excerpt`."""
    text = text.strip()
    if match := _PROBABILITY.fullmatch(text):
        num, den, whole, places, exp = match.groups()
        places, exp = len(places or ""), exp or "0"
        if num is not None:
            size = max(len(num), len(den))
        elif len(exp.lstrip("+-0")) > len(str(places + MAX_PROBABILITY_DIGITS)):
            size = math.inf  # an exponent too long to bring the places back within the cap
        else:
            size = max(len(whole), abs(places - int(exp)))
        if size > MAX_PROBABILITY_DIGITS:
            raise ValueError(f"{excerpt(text)} exceeds {MAX_PROBABILITY_DIGITS} digits")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # b = 0, or past the int string limit
            pass
    raise ValueError(f"{excerpt(text)} is not a decimal or a fraction a/b, b > 0")


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
                raise ProbabilityOutOfRange(f"probability #{i} = {excerpt(p)} is outside [0, 1]")

    @property
    def n(self) -> int:
        return self.events.n


def validate_marginals(events: EventSet, probs: Sequence) -> MarginalSet:
    return MarginalSet(events, tuple(
        parse_probability(str(p)) if isinstance(p, (str, float)) else Fraction(p) for p in probs))


def marginals_from_values(values: Sequence) -> MarginalSet:
    """Convenience: auto-named events with probabilities given as Fractions,
    ints, or strings and floats, whose text `parse_probability` reads: 0.1 is 1/10."""
    probs = tuple(values)
    return validate_marginals(default_event_set(len(probs)), probs)


class HalfRareMarginalSet(MarginalSet):
    """A MarginalSet in the half-rare order 1/2 >= p_1 >= p_2 >= ... >= p_N,
    so the most probable event comes first."""

    __slots__ = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        p = (HALF, *self.probs)  # p[i] is p_i: the message names the first break
        for i in range(1, len(p)):
            if p[i - 1] < p[i]:
                above = "1/2" if i == 1 else f"p_{i - 1} = {excerpt(p[i - 1])}"
                raise NotHalfRare(f"not in the half-rare order: p_{i} = {excerpt(p[i])} > {above}")


def over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The numerators of `values` over their least common denominator D, and
    D: sums and comparisons in integers, with no gcd per term."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class TerraceDistribution(Value):
    """A joint distribution of the events: the probability that exactly the
    events in X occur is `numerators[X] / den`, for every subset X.  The
    numerators are ints, summing to an int `den` > 0 and none negative, so
    every atom lies in [0, 1] and the atoms sum to 1 exactly.  The checks run
    in that order, so each message holds."""

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
        if self.den <= 0:
            raise ProbabilityOutOfRange(f"den = {excerpt(self.den)} is not positive")
        if total != self.den:
            raise ProbabilityOutOfRange(f"atoms sum to {excerpt(Fraction(total, self.den))}, not 1")
        if (least := min(self.numerators)) < 0:
            raise ProbabilityOutOfRange(f"atom #{self.numerators.index(least)} is negative")

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
