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
    HALF,
    ONE,
    MarginalSet,
    TerraceDistribution,
    Value,
    make_event_set,
    validate_marginals,
)
from .errors import LengthMismatch


class PhenomenonMap(Value):
    """Data of a set-phenomenon transform.

    `kept` is the bitmask M of events left alone; all others are complemented.
    `order` lists original event indices in their new positions, so
    `order == (0, 1, ..., N-1)` is the identity relabeling.
    """

    __slots__ = ("n", "kept", "order")

    @property
    def complemented(self) -> int:
        return ((1 << self.n) - 1) ^ self.kept

    def subset_table(self) -> list[int]:
        """The renumbering X -> perm(X xor C) for every subset X, in one pass.

        perm is linear over xor, so each entry is its predecessor without the
        lowest set bit, xored with that bit's new position."""
        pos = {1 << i: 1 << j for j, i in enumerate(self.order)}
        table = [sum(b for low, b in pos.items() if low & self.complemented)]
        for x in range(1, 1 << self.n):
            low = x & -x
            table.append(table[x ^ low] ^ pos[low])
        return table

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


def identity_phenomenon(n: int, kept: int | None = None) -> PhenomenonMap:
    full = (1 << n) - 1
    return PhenomenonMap(n, full if kept is None else kept, tuple(range(n)))


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
    kept = sum(1 << i for i, p in enumerate(probs) if p <= HALF)
    order = tuple(sorted(range(len(probs)), key=lambda i: -min(probs[i], ONE - probs[i])))
    return PhenomenonMap(len(probs), kept, order)


def apply_phenomenon(values: Sequence[Fraction], pm: PhenomenonMap) -> tuple[Fraction, ...]:
    """Renumber a dense power-set map: the value at X moves to slot
    perm(X xor C).  A bijection, so the value multiset is preserved."""
    if len(values) != 1 << pm.n:
        raise LengthMismatch(f"{len(values)} values for N={pm.n}")
    out = list(values)
    for x, y in enumerate(pm.subset_table()):
        out[y] = values[x]
    return tuple(out)
