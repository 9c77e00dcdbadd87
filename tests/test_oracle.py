"""LP oracle tests, including an independent brute-force check of the simplex
itself: for small N the polytope's basic solutions are enumerated directly by
exact Gaussian elimination over every column subset, so the simplex optimum is
validated against a second, unrelated exact method."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfrare import (
    HalfRareMarginalSet,
    TerraceDistribution,
    boundary_distributions,
    lp_extremize_terrace,
    marginals_from_values,
    random_marginals,
    verify_bounds,
)
from halfrare.errors import EventologyError, IndexOutOfRange, TooLarge
from halfrare.oracle import SubsetRecord, _simplex, _vertex_tableau

from conftest import marginal_sets, tied_marginal_sets

F = Fraction

FIG_DOUBLET = marginals_from_values(["0.45", "0.40"])
FIG_PENTAPLET = marginals_from_values(["0.45", "0.40", "0.35", "0.30", "0.25"])


def _solve_square(a, b):
    """Exact Gaussian elimination; None if singular."""
    n = len(a)
    m = [row[:] + [bi] for row, bi in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][-1] for r in range(n)]


def brute_force_extremes(x, m):
    """(min, max) of atom(X) over all basic feasible solutions of the marginal
    polytope.  Every vertex is basic, and a linear objective attains its
    extremes at vertices, so this is a complete oracle for small N."""
    ncells = 1 << m.n
    rows = [[F(1)] * ncells]
    rhs = [F(1)]
    for i in range(m.n):
        rows.append([F(1) if (w >> i) & 1 else F(0) for w in range(ncells)])
        rhs.append(m.probs[i])
    nrows = len(rows)
    lo = hi = None
    for cols in combinations(range(ncells), nrows):
        sq = [[rows[r][c] for c in cols] for r in range(nrows)]
        sol = _solve_square(sq, rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        atoms = [F(0)] * ncells
        for c, v in zip(cols, sol):
            atoms[c] = v
        v = atoms[x]
        lo = v if lo is None or v < lo else lo
        hi = v if hi is None or v > hi else hi
    assert lo is not None, "polytope unexpectedly empty"
    return lo, hi


def assert_lp_matches_brute_force(m):
    for x in range(1 << m.n):
        bf_lo, bf_hi = brute_force_extremes(x, m)
        assert lp_extremize_terrace(x, m, "min")[0] == bf_lo
        assert lp_extremize_terrace(x, m, "max")[0] == bf_hi


class TestSimplexAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        assert_lp_matches_brute_force(random_marginals(3, 9000 + seed, half_rare=seed % 2 == 0))

    def test_doublet(self):
        assert_lp_matches_brute_force(FIG_DOUBLET)

    # Ties and probabilities at 0 or 1 make the comonotone start degenerate.
    @pytest.mark.parametrize(
        "probs",
        [
            (0,), (F(1, 2),), (1,),
            (0, 0, 0), (1, 1, 1), (F(1, 2),) * 3, (1, 0, F(1, 2)),
            (F(1, 3), F(2, 3), F(1, 3)),
        ],
    )
    def test_degenerate_instances(self, probs):
        assert_lp_matches_brute_force(marginals_from_values(probs))


def _constraint_column(w, n):
    """The column of atom w in [A | b]'s constraint rows: (1, 1[i in w])_i."""
    return [1] + [(w >> i) & 1 for i in range(n)]


class TestStartVertex:
    @settings(max_examples=200)
    @given(marginal_sets(max_n=6))
    @example(marginals_from_values([0, F(1, 2), 1, F(1, 2), 0, 1]))
    @example(marginals_from_values([F(1, 3)] * 5))
    @example(marginals_from_values([1, 0]))
    def test_written_start_is_basis_inverse(self, m):
        tableau, basis, den = _vertex_tableau(m)
        ncells = 1 << m.n
        assert len(tableau) == len(basis) == m.n + 1
        assert all(len(row) == ncells + 1 for row in tableau)
        chain = [_constraint_column(c, m.n) for c in basis]

        def rebuild(col):
            return [sum(row[col] * a[i] for row, a in zip(tableau, chain)) for i in range(m.n + 1)]

        # B T = [A | D b], so T = B^-1 [A | D b] once B is the basis it names.
        for w in range(ncells):
            assert rebuild(w) == _constraint_column(w, m.n)
        assert rebuild(ncells) == [den, *(den * p for p in m.probs)]
        assert all(row[-1] >= 0 for row in tableau)
        # The basis is the comonotone chain: events added by descending p,
        # ties in input order.
        order = sorted(range(m.n), key=lambda i: (-m.probs[i], i))
        assert basis == [sum(1 << i for i in order[:k]) for k in range(m.n + 1)]


class TestIntegerPivots:
    @settings(max_examples=200)
    @given(marginal_sets(max_n=6) | tied_marginal_sets(max_n=6), st.integers(0, 63),
           st.sampled_from([1, -1]))
    @example(marginals_from_values([0, F(1, 2), 1, F(1, 2), 0, 1]), 63, -1)
    @example(random_marginals(6, 1), 21, 1)
    def test_final_tableau_is_d_times_the_true_one(self, m, cell, sign):
        ncells = 1 << m.n
        x = cell % ncells
        tableau, basis, den = _vertex_tableau(m)
        # The objective sign * atom(X), less its basic part, as the LP writes it.
        start = tableau[basis.index(x)] if x in basis else [0] * (ncells + 1)
        tableau.append([sign * ((w == x) - v) for w, v in enumerate(start)])
        d = _simplex(tableau, basis)
        assert d > 0
        # d I in the basis columns, the objective row 0 there.
        for r, j in enumerate(basis):
            assert [row[j] for row in tableau] == [d * (k == r) for k in range(m.n + 2)]
        # B T = d [A | D b] and the reduced costs are d c - c_B T: a floor
        # division that dropped a remainder breaks one of them.
        chain = [_constraint_column(c, m.n) for c in basis]
        for w in range(ncells + 1):
            column = [sum(row[w] * a[i] for row, a in zip(tableau, chain)) for i in range(m.n + 1)]
            want = _constraint_column(w, m.n) if w < ncells else [den, *(den * p for p in m.probs)]
            assert column == [d * v for v in want]
            basic = tableau[basis.index(x)][w] if x in basis else 0
            assert tableau[-1][w] == sign * (d * (w == x) - basic)

    def test_unbounded_column_is_a_program_fault(self):
        # Column 1 lowers the objective and no row bounds it.  The marginal
        # polytope is bounded, so this is a fault, not an input error (exit 3).
        with pytest.raises(AssertionError, match="unbounded LP") as e:
            _simplex([[1, -1, 1], [0, -1, 0]], [0])
        assert not isinstance(e.value, EventologyError)


class TestLpExtremize:
    def test_doublet_values(self):
        assert lp_extremize_terrace(0, FIG_DOUBLET, "max")[0] == F(11, 20)
        assert lp_extremize_terrace(1, FIG_DOUBLET, "min")[0] == F(1, 20)

    def test_witness_feasible_and_attaining(self):
        for x in range(4):
            for direction in ("min", "max"):
                v, w = lp_extremize_terrace(x, FIG_DOUBLET, direction)
                assert isinstance(w, TerraceDistribution)
                assert w.induced_marginals() == FIG_DOUBLET.probs
                assert sum(w.atoms) == 1
                assert all(a >= 0 for a in w.atoms)
                assert w[x] == v
                # A vertex: at most one nonzero atom per constraint row.
                assert sum(a != 0 for a in w.atoms) <= FIG_DOUBLET.n + 1

    def test_range_containment(self):
        m = random_marginals(4, 5)
        for x in range(1 << m.n):
            assert lp_extremize_terrace(x, m, "min")[0] >= 0
            assert lp_extremize_terrace(x, m, "max")[0] <= 1

    def test_validity_direction(self):
        # LP optima never escape the closed-form envelope, independently of
        # the sharpness comparison.
        m = random_marginals(4, 123)
        bd = boundary_distributions(m)
        for x in range(1 << m.n):
            assert lp_extremize_terrace(x, m, "min")[0] >= bd.lower[x]
            assert lp_extremize_terrace(x, m, "max")[0] <= bd.upper[x]

    @settings(max_examples=50)
    @given(marginal_sets(max_n=6) | tied_marginal_sets(max_n=6))
    @example(marginals_from_values([0, F(1, 2), 1, F(1, 2), 0, 1]))
    @example(random_marginals(6, 3))
    def test_witnesses_in_lowest_terms(self, m):
        for r in verify_bounds(m).records:
            for w in (r.witness_min, r.witness_max):
                assert math.gcd(w.den, *w.numerators) == 1

    def test_too_large(self):
        with pytest.raises(TooLarge):
            lp_extremize_terrace(0, random_marginals(7, 1), "min")

    def test_bad_subset(self):
        with pytest.raises(IndexOutOfRange):
            lp_extremize_terrace(4, FIG_DOUBLET, "min")

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            lp_extremize_terrace(0, FIG_DOUBLET, "sideways")


class TestVerifyBounds:
    def test_fig_doublet_passes(self):
        report = verify_bounds(FIG_DOUBLET)
        assert report.verdict
        assert len(report.records) == 4
        assert report.first_mismatch() is None

    def test_fig_pentaplet_passes(self):
        report = verify_bounds(FIG_PENTAPLET)
        assert report.verdict
        assert all(r.lp_min == 0 for r in report.records)  # all lower bounds 0

    def test_record_text_names_subset_closed_form_and_lp_optimum(self):
        record = verify_bounds(FIG_PENTAPLET).records[0b00110]
        fields = {name: getattr(record, name) for name in record.__match_args__}
        off = SubsetRecord(**{**fields, "closed_form_upper": record.lp_max + F(1, 7)})
        assert str(off) == (f"subset 01100: closed-form [{record.lp_min}, {record.lp_max + F(1, 7)}]"
                            f" vs LP [{record.lp_min}, {record.lp_max}]")
        assert repr(off).startswith("SubsetRecord(subset=6, closed_form_lower=")

    def test_degenerate_polytope(self):
        report = verify_bounds(marginals_from_values([1, 0]))
        assert report.verdict
        assert all(r.lp_min == r.lp_max for r in report.records)

    def test_zero_pattern_rederived_by_lp(self):
        # For half-rare marginals the LP minimum vanishes outside the empty
        # set and the top singleton, without using the closed form.
        for seed in range(6):
            m = random_marginals(4, 400 + seed, half_rare=True)
            for x in range(1 << m.n):
                if x not in (0, 1):
                    assert lp_extremize_terrace(x, m, "min")[0] == 0


class TestRandomMarginals:
    def test_deterministic(self):
        assert random_marginals(2, 7).probs == random_marginals(2, 7).probs

    def test_half_rare_postcondition(self):
        m = random_marginals(3, 42, half_rare=True)
        HalfRareMarginalSet(m.events, m.probs)

    def test_denominator_cap(self):
        m = random_marginals(6, 11)
        assert all(p.denominator <= 1000 for p in m.probs)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            random_marginals(21, 0)

    def test_sweep_passes(self):
        for seed in range(10):
            assert verify_bounds(random_marginals(5, seed, half_rare=True)).verdict
