"""Independence projection, half-rare projection and set-phenomenon transforms.

An M-phenomenon complements every event outside the kept set M.  On terrace
distributions this acts as the bijective renumbering X -> X xor C (C the
complemented events), optionally followed by a relabeling permutation.  The
half-rare projection complements exactly the events with probability > 1/2
and reorders by descending probability (stable), which lands any marginal set
in the half-rare regime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul, xor
from typing import Sequence

from .core import (
    ONE,
    EventSet,
    MarginalSet,
    TerraceDistribution,
    Value,
    check_subset,
    half_tables,
    over_common_denominator,
    subset_table,
    validate_marginals,
)
from .errors import IndexOutOfRange, LengthMismatch, excerpt


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
        if not all(isinstance(i, int) for i in order) or sorted(order) != list(range(self.n)):
            raise IndexOutOfRange(f"order {excerpt(order)} is not a permutation of 0..{self.n - 1}")
        check_subset(self.kept, self.n)

    @property
    def n(self) -> int:
        return len(self.order)

    def half_tables(self) -> tuple[list[int], list[int]]:
        """The renumbering X -> perm(X xor C) as `core.half_tables`, whose
        entries share no bit: X maps to `lo[X % len(lo)] | hi[X // len(lo)]`.
        perm is linear over xor: event i's bit is set if kept and in X, or complemented and not."""
        bits = [1 << self.order.index(i) for i in range(self.n)]
        pairs = [(0, bit) if (self.kept >> i) & 1 else (bit, 0) for i, bit in enumerate(bits)]
        return half_tables(0, pairs, xor)

    def map_probs(self, probs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Marginals after the transform: complemented events get 1 - p."""
        if len(probs) != self.n:
            raise LengthMismatch(f"{len(probs)} probabilities for N={self.n}")
        return tuple(probs[i] if (self.kept >> i) & 1 else ONE - probs[i] for i in self.order)

    def map_marginals(self, m: MarginalSet) -> MarginalSet:
        """`map_probs` with labels: complemented events are renamed `label^c`."""
        probs = self.map_probs(m.probs)
        labels = tuple(
            m.events.labels[i] if (self.kept >> i) & 1 else m.events.labels[i] + "^c"
            for i in self.order
        )
        return validate_marginals(EventSet(labels), probs)


def independent_epd(m: MarginalSet) -> TerraceDistribution:
    """Dense terrace distribution of the independent projection, over the one
    denominator D = prod den(p_x) that every cell shares."""
    # One integer factor per event, d - a or a: no gcd until a cell is read as a Fraction.
    pairs = [(p.denominator - p.numerator, p.numerator) for p in m.probs]
    return TerraceDistribution(
        m.events, tuple(subset_table(1, pairs, mul)), math.prod(p.denominator for p in m.probs))


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
