"""Closed-form Fréchet bounds of the 1st kind.

General formulas for arbitrary marginals:

    lower(X) = max{0, 1 - sum_{x in X} (1 - p_x) - sum_{x not in X} p_x}
    upper(X) = min{min_{x in X} p_x, min_{x not in X} (1 - p_x)}

with the min over an empty index side dropped.  For half-rare marginals
(1/2 >= p_1 >= ... >= p_N) the upper bound simplifies to 1 - p_1 at the
empty set and min_{x in X} p_x elsewhere, and the lower bound is nonzero
for at most two subsets: the empty set and the singleton of the most
probable event.  Complementing the events with p > 1/2 and sorting reduces
any marginal set to that case, so the dense table is always computed there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    ONE,
    ZERO,
    HalfRareMarginalSet,
    MarginalSet,
    Value,
    check_subset,
    make_event_set,
    over_common_denominator,
)
from .transforms import half_rare_map


class BoundaryDistributions(Value):
    """Lower and upper Fréchet bounds over the full power set, one cell per
    subset in ascending bitmask order: with `independent_epd`'s table, the
    2^N-entry objects of the dense path.  A cell is the bound itself or, from
    `boundary_distributions(m, level)`, `level` of it; either way the two
    columns hold at most N+4 distinct objects."""

    __slots__ = ("events", "lower", "upper")


class CovarianceBounds(Value):
    """Per-subset covariance intervals [kov_lower, kov_upper] for a doublet."""

    __slots__ = ("events", "intervals")


def lower_bound_general(x: int, m: MarginalSet) -> Fraction:
    check_subset(x, m.n)
    nums, den = over_common_denominator(m.probs)
    total = den - sum(den - q if (x >> i) & 1 else q for i, q in enumerate(nums))
    return Fraction(max(0, total), den)


def upper_bound_general(x: int, m: MarginalSet) -> Fraction:
    check_subset(x, m.n)
    nums, den = over_common_denominator(m.probs)
    return Fraction(min(q if (x >> i) & 1 else den - q for i, q in enumerate(nums)), den)


def _half_rare_levels(p: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The half-rare closed forms for probabilities `p` in half-rare order:
    the 2 lower values that can be nonzero (at y = 0 and y = 1, 0 elsewhere)
    and the N+1 upper values (1 - p_1 at y = 0, else p at y's highest bit)."""
    nums, den = over_common_denominator(p)
    first, rest = nums[0], sum(nums) - nums[0]
    lows = (Fraction(max(0, den - first - rest), den), Fraction(max(0, first - rest), den))
    return lows, (Fraction(den - first, den), *p)


def lower_bound_half_rare(x: int, h: HalfRareMarginalSet) -> Fraction:
    check_subset(x, h.n)
    if not isinstance(h, HalfRareMarginalSet):
        HalfRareMarginalSet(h.events, h.probs)  # NotHalfRare outside the half-rare order
    return _half_rare_levels(h.probs)[0][x] if x < 2 else ZERO


def boundary_distributions(
    m: MarginalSet, level: Callable[[Fraction], object] = lambda q: q
) -> BoundaryDistributions:
    """Dense bounds over all 2^N subsets, by the half-rare reduction: project
    the marginals to the half-rare case and read its closed forms at each
    subset's image y under the one renumbering.  Labels play no part.

    Upper cells read y = a | b from the two half tables.  Lower cells share
    one 0 but at y = 0 and 1: X = C, the complemented events, and C plus the
    new first event.  `level` maps each of the N+4 values once."""
    pm = half_rare_map(m.probs)
    lows, ups = _half_rare_levels(pm.map_probs(m.probs))
    at_c, at_first, zero, *ups = [level(q) for q in (*lows, ZERO, *ups)]
    lo, hi = pm.half_tables()
    upper = tuple([ups[(a | b).bit_length()] for b in hi for a in lo])
    lower = [zero] * len(upper)
    c = ((1 << pm.n) - 1) ^ pm.kept
    lower[c], lower[c ^ (1 << pm.order[0])] = at_c, at_first
    return BoundaryDistributions(m.events, tuple(lower), upper)


def _doublet_marginals(p_x: Fraction, p_y: Fraction) -> HalfRareMarginalSet:
    return HalfRareMarginalSet(make_event_set(("x", "y")), (Fraction(p_x), Fraction(p_y)))


def doublet_bounds(p_x: Fraction, p_y: Fraction) -> BoundaryDistributions:
    """Bounds for a half-rare pair, in subset order (empty, {x}, {y}, {x,y})."""
    return boundary_distributions(_doublet_marginals(p_x, p_y))


def covariance_bounds_doublet(p_x: Fraction, p_y: Fraction) -> CovarianceBounds:
    """Covariance intervals for a half-rare pair, in subset order
    (empty, {x}, {y}, {x,y}); every interval straddles 0."""
    m = _doublet_marginals(p_x, p_y)
    p_x, p_y = m.probs
    outer = (-p_x * p_y, (ONE - p_x) * p_y)
    inner = (-(ONE - p_x) * p_y, p_x * p_y)
    return CovarianceBounds(m.events, (outer, inner, inner, outer))
