"""Foundational types: labeled event sets, exact rational marginals, terrace
distributions and bitmask subset indexing.

Each type checks its own invariant once, when it is built, and code that holds
one does not check it again: an `EventSet` has 1 to MAX_EVENTS distinct labels
(the only dense size guard), a `MarginalSet` one probability in [0, 1] per
event, and a `TerraceDistribution` 2^N nonnegative atoms summing to 1.
`make_event_set`, `default_event_set` and `validate_marginals` only coerce
their arguments to tuples and `Fraction`s.

Probabilities are carried as `fractions.Fraction` everywhere; decimals are a
rendering concern only.  Subsets of an N-event set are plain ints in
[0, 2^N): bit i corresponds to the i-th event in input order.  Event order is
never silently re-sorted; reordering is an explicit transform (see
:mod:`halfrare.transforms`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    DuplicateLabel,
    EmptySet,
    IndexOutOfRange,
    LengthMismatch,
    NotHalfRare,
    ProbabilityOutOfRange,
    TooLarge,
)

#: Dense power-set storage cap: full 2^N tables are only built for N <= 20.
MAX_EVENTS = 20

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class EventSet:
    """An ordered set of 1 to MAX_EVENTS distinctly labeled events."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise EmptySet("an event set needs at least one event")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel(f"labels are not pairwise distinct: {self.labels}")
        if len(self.labels) > MAX_EVENTS:
            raise TooLarge(f"N={len(self.labels)} exceeds the dense cap {MAX_EVENTS}")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> int:
        """Bitmask of the whole set."""
        return (1 << self.n) - 1


def make_event_set(labels: Sequence[str]) -> EventSet:
    return EventSet(tuple(labels))


def default_event_set(n: int) -> EventSet:
    """Events auto-named x1..xN."""
    return EventSet(tuple(f"x{i + 1}" for i in range(n)))


def check_subset(x: int, n: int) -> None:
    if not 0 <= x < (1 << n):
        raise IndexOutOfRange(f"subset index {x} not in [0, 2^{n})")


def indicator_string(x: int, n: int) -> str:
    """N-character '0'/'1' word; position i shows membership of the i-th event."""
    check_subset(x, n)
    return "".join("1" if (x >> i) & 1 else "0" for i in range(n))


def subset_from_indicator(s: str) -> int:
    bits = 0
    for i, c in enumerate(s):
        if c == "1":
            bits |= 1 << i
        elif c != "0":
            raise ValueError(f"not an indicator string: {s!r}")
    return bits


def subset_iter(n: int) -> Iterator[int]:
    """All 2^N subsets in ascending bitmask order: empty set first, full set last."""
    return iter(range(1 << n))


def subset_labels(x: int, events: EventSet) -> tuple[str, ...]:
    return tuple(lab for i, lab in enumerate(events.labels) if (x >> i) & 1)


def parse_probability(text: str) -> Fraction:
    """Parse a decimal ("0.45") or fraction ("9/20") string exactly."""
    return Fraction(text.strip())


@dataclass(frozen=True)
class MarginalSet:
    """Per-event probabilities for an ordered event set, each in [0, 1]."""

    events: EventSet
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.probs) != self.events.n:
            raise LengthMismatch(f"{len(self.probs)} probabilities for {self.events.n} events")
        for i, p in enumerate(self.probs):
            if not ZERO <= p <= ONE:
                raise ProbabilityOutOfRange(i, p)

    @property
    def n(self) -> int:
        return self.events.n

    def is_half_rare(self) -> bool:
        p = self.probs
        return p[0] <= HALF and all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def validate_marginals(events: EventSet, probs: Sequence[Fraction]) -> MarginalSet:
    return MarginalSet(events, tuple(Fraction(p) for p in probs))


def marginals_from_values(values: Sequence) -> MarginalSet:
    """Convenience: auto-named events with probabilities given as Fractions,
    strings or ints."""
    probs = tuple(values)
    return validate_marginals(default_event_set(len(probs)), probs)


@dataclass(frozen=True)
class HalfRareMarginalSet:
    """A MarginalSet with 1/2 >= p_1 >= p_2 >= ... >= p_N.

    The most probable event is always the first one by construction.
    """

    inner: MarginalSet

    def __post_init__(self) -> None:
        if not self.inner.is_half_rare():
            raise NotHalfRare(f"probabilities violate the half-rare order: {self.inner.probs}")

    @property
    def events(self) -> EventSet:
        return self.inner.events

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return self.inner.probs

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def p_max(self) -> Fraction:
        return self.inner.probs[0]


@dataclass(frozen=True)
class TerraceDistribution:
    """A joint distribution of the events: the probability `atoms[X]` that
    exactly the events in X occur, for every subset X.  Atoms are
    nonnegative and sum to 1 exactly, so each also lies in [0, 1]."""

    events: EventSet
    atoms: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.atoms) != 1 << self.events.n:
            raise LengthMismatch(
                f"{len(self.atoms)} atoms for N={self.events.n} (need {1 << self.events.n})"
            )
        for x, a in enumerate(self.atoms):
            if a < ZERO:
                raise ProbabilityOutOfRange(x, a)
        if sum(self.atoms) != ONE:
            raise ProbabilityOutOfRange("total", sum(self.atoms))

    def __getitem__(self, x: int) -> Fraction:
        check_subset(x, self.events.n)
        return self.atoms[x]

    def induced_marginals(self) -> tuple[Fraction, ...]:
        n = self.events.n
        return tuple(
            sum((a for x, a in enumerate(self.atoms) if (x >> i) & 1), ZERO)
            for i in range(n)
        )


def format_exact(q: Fraction) -> str:
    """Fraction string: "9/20", "0", "1"."""
    return str(q)


def format_decimal(q: Fraction, digits: int = 6) -> str:
    """Round to `digits` decimal places, trailing zeros trimmed."""
    scaled = round(q * 10**digits)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    text = f"{sign}{whole}.{frac:0{digits}d}".rstrip("0").rstrip(".")
    return text or "0"
