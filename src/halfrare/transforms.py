"""Independence projection, half-rare projection and set-phenomenon transforms.

An M-phenomenon complements every event outside the kept set M.  On terrace
distributions this acts as the bijective renumbering X -> X xor C (C the
complemented events), optionally followed by a relabeling permutation.  The
half-rare projection complements exactly the events with probability > 1/2
and reorders by descending probability (stable), which lands any marginal set
in the half-rare regime.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import (
    ONE,
    MarginalSet,
    TerraceDistribution,
    Value,
    check_subset,
    make_event_set,
    over_common_denominator,
    validate_marginals,
)
from .errors import IndexOutOfRange, LengthMismatch


class PhenomenonMap(Value):
    """Data of a set-phenomenon transform on N = len(order) events.

    `kept` is the bitmask M of events left alone; all others are complemented.
    `order`, a permutation of 0..N-1, lists original event indices in their
    new positions, so `order == (0, 1, ..., N-1)` is the identity relabeling.
    Subsets are renumbered X -> perm(X xor C), C the complemented events
    (`half_tables`).
    """

    __slots__ = ("kept", "order")

    def __post_init__(self) -> None:
        order = self.order
        if sorted(order) != list(range(self.n)) or not all(isinstance(i, int) for i in order):
            raise IndexOutOfRange(f"order {self.order} is not a permutation of 0..{self.n - 1}")
        check_subset(self.kept, self.n)

    @property
    def n(self) -> int:
        return len(self.order)

    def half_tables(self) -> tuple[list[int], list[int]]:
        """The renumbering X -> perm(X xor C) as two tables, `lo` over the
        first h = N // 2 events and `hi` over the rest, whose entries share no
        bit: X maps to `lo[X & (2^h - 1)] | hi[X >> h]`.  perm is linear over
        xor, so each table starts at the image of its half of C and doubles
        per event."""
        pos = [0] * self.n
        for j, i in enumerate(self.order):
            pos[i] = 1 << j
        tables = []
        for events in (range(self.n // 2), range(self.n // 2, self.n)):
            table = [sum(pos[i] for i in events if not (self.kept >> i) & 1)]
            for i in events:
                table += [y ^ pos[i] for y in table]
            tables.append(table)
        return tables[0], tables[1]

    def map_probs(self, probs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Marginals after the transform: complemented events get 1 - p."""
        return tuple(probs[i] if (self.kept >> i) & 1 else ONE - probs[i] for i in self.order)

    def map_marginals(self, m: MarginalSet) -> MarginalSet:
        """`map_probs` with labels: complemented events are renamed `label^c`."""
        labels = tuple(
            m.events.labels[i] if (self.kept >> i) & 1 else m.events.labels[i] + "^c"
            for i in self.order
        )
        return validate_marginals(make_event_set(labels), self.map_probs(m.probs))


def independent_epd(m: MarginalSet) -> TerraceDistribution:
    """Dense terrace distribution of the independent projection, over the one
    denominator D = prod den(p_x) that every cell shares."""
    # Tensor-product fill on integers: one factor per event instead of N
    # products per cell, and no gcd until a cell is read as a Fraction.
    nums, den = [1], 1
    for p in m.probs:
        a, d = p.numerator, p.denominator
        nums = [v * (d - a) for v in nums] + [v * a for v in nums]
        den *= d
    return TerraceDistribution(m.events, tuple(nums), den)


def half_rare_map(probs: Sequence[Fraction]) -> PhenomenonMap:
    """Complement events with p > 1/2, then stably sort descending."""
    nums, den = over_common_denominator(probs)
    kept = sum(1 << i for i, q in enumerate(nums) if 2 * q <= den)
    order = tuple(sorted(range(len(nums)), key=lambda i: -min(nums[i], den - nums[i])))
    return PhenomenonMap(kept, order)


def apply_phenomenon(values: Sequence[Fraction], pm: PhenomenonMap) -> tuple[Fraction, ...]:
    """Renumber a dense power-set map: the value at X moves to slot
    perm(X xor C).  A bijection, so the value multiset is preserved."""
    if len(values) != 1 << pm.n:
        raise LengthMismatch(f"{len(values)} values for N={pm.n}")
    lo, hi = pm.half_tables()
    out = list(values)
    for x, v in enumerate(values):
        out[lo[x % len(lo)] | hi[x // len(lo)]] = v
    return tuple(out)
