"""Exact LP verification of the closed-form bounds.

Each terrace probability is extremized over the polytope of joint
distributions with the given marginals (2^N atom variables, N+1 equality
constraints, atoms >= 0).  The solver is a dense one-phase simplex with Bland's
rule, in integers: its pivots are fraction-free (Edmonds 1967, Bareiss 1968).
It starts at the comonotone joint, a vertex whose basis is the chain of cells
{} < {s1} < {s1, s2} < ..., s sorting the events by descending p.  That basis
is unit triangular and its inverse is a difference operator, so the start
tableau is written from the marginals alone, with no pivot, and the closed
forms play no part in the search.  Optima compare to the closed forms by exact
equality, and every reported witness is a vertex of the polytope, returned as a
`TerraceDistribution`.  `lp_extremize_terrace` is the one place the LP cap
MAX_LP_EVENTS is checked.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate

from .bounds import boundary_distributions
from .core import (
    HALF,
    MarginalSet,
    TerraceDistribution,
    Value,
    check_event_count,
    check_subset,
    default_event_set,
    indicator_string,
    over_common_denominator,
    validate_marginals,
)
from .errors import excerpt

#: LP cap: at N = 6 the tableau is 8 (N + 2) rows by 65 (2^N atoms, right-hand side) columns.
MAX_LP_EVENTS = 6


class SubsetRecord(Value):
    __slots__ = ("subset", "closed_form_lower", "lp_min", "closed_form_upper", "lp_max",
                 "witness_min", "witness_max")

    def __str__(self) -> str:
        word = indicator_string(self.subset, self.witness_min.events.n)
        return (f"subset {word}: closed-form [{self.closed_form_lower}, {self.closed_form_upper}] "
                f"vs LP [{self.lp_min}, {self.lp_max}]")


class VerificationReport(Value):
    __slots__ = ("marginals", "records")

    @property
    def verdict(self) -> bool:
        return self.first_mismatch() is None

    def first_mismatch(self) -> SubsetRecord | None:
        return next((r for r in self.records
                     if (r.closed_form_lower, r.closed_form_upper) != (r.lp_min, r.lp_max)), None)


def _simplex(tableau: list[list[int]], basis: list[int]) -> int:
    """Minimize the objective in the last row by Bland's rule, keeping the
    integer tableau d times the true one, and return d.  A pivot on p > 0 sets
    every other row to (p row - f pivot_row) // d, then d = p (Edmonds-Bareiss):
    every entry is a minor of the start tableau, so each division is exact."""
    d = 1
    while True:
        col = next((j for j, v in enumerate(tableau[-1][:-1]) if v < 0), -1)
        if col < 0:
            return d
        row = -1
        for r, trow in enumerate(tableau[:-1]):
            a = trow[col]
            # b_r / a against the least ratio yet, cross-multiplied; ties to the lower cell.
            if a > 0 and (row < 0 or (trow[-1] * tableau[row][col], basis[r])
                          < (tableau[row][-1] * a, basis[row])):
                row = r
        if row < 0:
            raise AssertionError("unbounded LP over a bounded polytope: a program fault, not bad input")
        prow, p = tableau[row], tableau[row][col]
        for r, trow in enumerate(tableau):
            if r != row:
                f = trow[col]
                tableau[r] = [(p * v - f * w) // d for v, w in zip(trow, prow)]
        basis[row], d = col, p


def _vertex_tableau(m: MarginalSet) -> tuple[list[list[int]], list[int], int]:
    """B^-1 [A | D b] at the comonotone joint, its basis and D, the marginals'
    least common denominator; [A | b] has the rows [1 ... 1 | 1] and
    [indicator_i | p_i].  Row k holds the chain cell c_k = {s_1, ..., s_k}, s
    sorting the events by descending p, ties in input order.  Column w reads
    [s_k in w] - [s_(k+1) in w] and the right-hand side D (p_(k) - p_(k+1)) >= 0,
    with s_0 in every cell and s_(N+1) in none, p_(0) = 1 and p_(N+1) = 0.  It
    is B^-1 because c_k holds s_j exactly for k >= j: summed over all k the
    rows telescope to the ones row, and over k >= j to the row of s_j."""
    ncells = 1 << m.n
    order = sorted(range(m.n), key=lambda i: -m.probs[i])
    inside = [[1] * ncells] + [[w >> i & 1 for w in range(ncells)] for i in order] + [[0] * ncells]
    nums, den = over_common_denominator([m.probs[i] for i in order])
    p = [den, *nums, 0]
    tableau = [
        [a - b for a, b in zip(inside[k], inside[k + 1])] + [p[k] - p[k + 1]]
        for k in range(m.n + 1)
    ]
    return tableau, list(accumulate((1 << i for i in order), int.__or__, initial=0)), den


def lp_extremize_terrace(
    x: int, m: MarginalSet, direction: str
) -> tuple[Fraction, TerraceDistribution]:
    """Exact optimum of atom(X) over all joints with marginals m, plus an
    attaining witness in lowest terms.  `direction` is "min" or "max"."""
    check_event_count(m.n, MAX_LP_EVENTS, "LP")
    check_subset(x, m.n)
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {excerpt(direction)}")
    tableau, basis, den = _vertex_tableau(m)
    sign = 1 if direction == "min" else -1
    # sign atom(X) less its basic part: the reduced costs at the start vertex.
    start = tableau[basis.index(x)] if x in basis else [0] * len(tableau[0])
    tableau.append([sign * ((w == x) - v) for w, v in enumerate(start)])
    den *= _simplex(tableau, basis)  # the atoms: the right-hand sides over D d
    rhs = {j: row[-1] for j, row in zip(basis, tableau)}
    atoms = [rhs.get(w, 0) for w in range(1 << m.n)]
    g = math.gcd(den, *atoms)
    return Fraction(atoms[x], den), TerraceDistribution(
        m.events, tuple(a // g for a in atoms), den // g)


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
