"""Exact LP verification of the closed-form bounds.

Each terrace probability is extremized over the polytope of joint
distributions with the given marginals (2^N atom variables, N+1 equality
constraints, atoms >= 0).  The solver is a dense one-phase simplex over exact
rationals with Bland's rule.  It starts at the comonotone joint, a vertex whose
basis is the chain of cells {} < {s1} < {s1, s2} < ..., s sorting the events by
descending p.  That basis is unit triangular and its inverse is a difference
operator, so the start tableau is written from the marginals alone, with no
pivot, and the closed forms play no part in the search.  Optima compare to the
closed forms by exact equality, and every reported witness is a vertex of the
polytope, returned as a `TerraceDistribution`.  `lp_extremize_terrace` is the
one place the LP cap MAX_LP_EVENTS is checked.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate

from .bounds import boundary_distributions
from .core import (
    HALF,
    ONE,
    ZERO,
    MarginalSet,
    TerraceDistribution,
    Value,
    check_event_count,
    check_subset,
    default_event_set,
    validate_marginals,
)
from .errors import Infeasible

#: LP cap: 2^N atom variables keeps the tableau at most 64 columns wide.
MAX_LP_EVENTS = 6


class SubsetRecord(Value):
    __slots__ = ("subset", "closed_form_lower", "lp_min", "closed_form_upper", "lp_max",
                 "witness_min", "witness_max")

    @property
    def matches(self) -> bool:
        return self.closed_form_lower == self.lp_min and self.closed_form_upper == self.lp_max


class VerificationReport(Value):
    __slots__ = ("marginals", "records")

    @property
    def verdict(self) -> bool:
        return self.first_mismatch() is None

    def first_mismatch(self) -> SubsetRecord | None:
        for r in self.records:
            if not r.matches:
                return r
        return None


def _simplex(tableau: list[list[Fraction]], basis: list[int]) -> None:
    """Minimize the objective in the last tableau row; Bland's rule, exact
    arithmetic."""
    obj = tableau[-1]
    while True:
        col = next((j for j in range(len(obj) - 1) if obj[j] < ZERO), -1)
        if col < 0:
            return
        row, best = -1, None
        for r in range(len(tableau) - 1):
            a = tableau[r][col]
            if a > ZERO:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    row, best = r, ratio
        if row < 0:
            raise Infeasible("unbounded LP over a probability polytope")
        piv = tableau[row][col]
        prow = tableau[row] = [v / piv for v in tableau[row]]
        for r, trow in enumerate(tableau):
            if r != row and trow[col]:
                f = trow[col]
                tableau[r] = [v - f * w for v, w in zip(trow, prow)]
        basis[row] = col
        obj = tableau[-1]


def _vertex_tableau(m: MarginalSet) -> tuple[list[list[Fraction]], list[int]]:
    """B^-1 [A | b] at the comonotone joint, A having the rows [1 ... 1 | 1]
    and [indicator_i | p_i].  Row k holds the chain cell c_k = {s_1, ..., s_k},
    s sorting the events by descending p, ties in input order.  Column w reads
    [s_k in w] - [s_(k+1) in w] and the right-hand side p_(k) - p_(k+1) >= 0,
    with s_0 in every cell and s_(N+1) in none, p_(0) = 1 and p_(N+1) = 0.  It
    is B^-1 because c_k holds s_j exactly for k >= j: summed over all k the
    rows telescope to the ones row, and over k >= j to the row of s_j."""
    ncells = 1 << m.n
    order = sorted(range(m.n), key=lambda i: -m.probs[i])
    inside = [[1] * ncells] + [[w >> i & 1 for w in range(ncells)] for i in order] + [[0] * ncells]
    p = [ONE] + [m.probs[i] for i in order] + [ZERO]
    unit = (ZERO, ONE, -ONE)  # indexed by a difference in {0, 1, -1}
    tableau = [
        [unit[a - b] for a, b in zip(inside[k], inside[k + 1])] + [p[k] - p[k + 1]]
        for k in range(m.n + 1)
    ]
    return tableau, list(accumulate((1 << i for i in order), int.__or__, initial=0))


def lp_extremize_terrace(
    x: int, m: MarginalSet, direction: str
) -> tuple[Fraction, TerraceDistribution]:
    """Exact optimum of atom(X) over all joints with marginals m, plus an
    attaining witness.  `direction` is "min" or "max"."""
    check_event_count(m.n, MAX_LP_EVENTS, "LP")
    check_subset(x, m.n)
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    tableau, basis = _vertex_tableau(m)
    ncells = 1 << m.n
    sign = ONE if direction == "min" else -ONE
    obj = [ZERO] * (ncells + 1)
    obj[x] = sign
    if x in basis:
        obj = [v - sign * w for v, w in zip(obj, tableau[basis.index(x)])]
    tableau.append(obj)
    _simplex(tableau, basis)
    atoms = [ZERO] * ncells
    for r, j in enumerate(basis):
        atoms[j] = tableau[r][-1]
    return atoms[x], TerraceDistribution.from_atoms(m.events, atoms)


def verify_bounds(m: MarginalSet) -> VerificationReport:
    """Compare the LP optimum of every terrace cell, both directions, with the
    closed-form bounds; the verdict passes only on exact equality throughout."""
    # The LPs run first, so an N over the LP cap fails before any dense work.
    optima = [
        (lp_extremize_terrace(x, m, "min"), lp_extremize_terrace(x, m, "max"))
        for x in range(1 << m.n)
    ]
    bd = boundary_distributions(m)
    return VerificationReport(m, tuple(
        SubsetRecord(x, bd.lower[x], lo, bd.upper[x], hi, wit_lo, wit_hi)
        for x, ((lo, wit_lo), (hi, wit_hi)) in enumerate(optima)
    ))


def random_marginals(n: int, seed: int, half_rare: bool = False) -> MarginalSet:
    """Deterministic random marginals with denominators <= 1000; the half-rare
    variant clamps to [0, 1/2] and sorts descending."""
    events = default_event_set(n)
    rng = random.Random(seed)
    probs = []
    for _ in range(n):
        den = rng.randint(1, 1000)
        probs.append(Fraction(rng.randint(0, den), den))
    if half_rare:
        probs = sorted((min(p, HALF) for p in probs), reverse=True)
    return validate_marginals(events, probs)
