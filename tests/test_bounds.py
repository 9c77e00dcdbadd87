from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfrare import (
    HalfRareMarginalSet,
    boundary_distributions,
    covariance_bounds_doublet,
    doublet_bounds,
    independent_epd,
    lower_bound_general,
    lower_bound_half_rare,
    marginals_from_values,
    random_marginals,
    upper_bound_general,
)
from halfrare.core import (
    TerraceDistribution,
    default_event_set,
    make_event_set,
    validate_marginals,
)
from halfrare.errors import IndexOutOfRange, NotHalfRare
from halfrare.transforms import half_rare_map

from conftest import (
    half_rare_sets,
    independent_value,
    marginal_sets,
    tied_marginal_sets,
)

F = Fraction

FIG_DOUBLET = marginals_from_values(["0.45", "0.40"])
FIG_PENTAPLET = marginals_from_values(["0.45", "0.40", "0.35", "0.30", "0.25"])


class TestGeneralFormulas:
    def test_lower_examples(self):
        assert lower_bound_general(0, FIG_DOUBLET) == F(3, 20)
        assert lower_bound_general(1, marginals_from_values(["0.7", "0.4"])) == F(3, 10)
        assert lower_bound_general(3, FIG_DOUBLET) == 0

    def test_upper_examples(self):
        assert upper_bound_general(0, FIG_DOUBLET) == F(11, 20)
        assert upper_bound_general(1, FIG_DOUBLET) == F(9, 20)
        assert upper_bound_general(3, FIG_DOUBLET) == F(2, 5)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            lower_bound_general(4, FIG_DOUBLET)
        with pytest.raises(IndexOutOfRange):
            upper_bound_general(-1, FIG_DOUBLET)

    @given(marginal_sets(max_n=5), st.data())
    def test_complement_symmetry(self, m, data):
        # Flipping p_c -> 1-p_c for c in C and X -> X xor C leaves both bounds
        # unchanged; the algebraic core of the arbitrary-marginals reduction.
        c = data.draw(st.integers(min_value=0, max_value=2**m.n - 1))
        flipped = marginals_from_values(
            [1 - p if (c >> i) & 1 else p for i, p in enumerate(m.probs)]
        )
        for x in range(1 << m.n):
            assert lower_bound_general(x, m) == lower_bound_general(x ^ c, flipped)
            assert upper_bound_general(x, m) == upper_bound_general(x ^ c, flipped)


class TestHalfRareFormulas:
    def test_upper_empty_set(self):
        h = HalfRareMarginalSet(FIG_PENTAPLET.events, FIG_PENTAPLET.probs)
        assert boundary_distributions(h).upper[0] == F(11, 20)

    def test_upper_min_over_members(self):
        h = HalfRareMarginalSet(FIG_PENTAPLET.events, FIG_PENTAPLET.probs)
        assert boundary_distributions(h).upper[0b10100] == F(1, 4)  # {x3, x5}

    def test_lower_examples(self):
        h = HalfRareMarginalSet(FIG_DOUBLET.events, FIG_DOUBLET.probs)
        assert lower_bound_half_rare(0, h) == F(3, 20)
        h2 = HalfRareMarginalSet(default_event_set(2), (F(1, 2), F(1, 10)))
        assert lower_bound_half_rare(1, h2) == F(2, 5)
        assert lower_bound_half_rare(2, h2) == 0

    @pytest.mark.parametrize("probs", [(F(1, 5), F(9, 20)), (F(9, 10), F(1, 5))])
    def test_lower_rejects_a_plain_set_outside_the_order(self, probs):
        # Every subset is checked, not only those of the x < 2 branch.
        m = marginals_from_values(probs)
        with pytest.raises(NotHalfRare) as built:
            HalfRareMarginalSet(m.events, m.probs)
        for x in range(4):
            with pytest.raises(NotHalfRare) as read:
                lower_bound_half_rare(x, m)
            assert str(read.value) == str(built.value)

    def test_lower_reads_a_plain_set_in_the_order(self):
        assert [lower_bound_half_rare(x, FIG_DOUBLET) for x in range(4)] == [F(3, 20), F(1, 20), 0, 0]

    @given(half_rare_sets())
    def test_agreement_with_general(self, h):
        upper = boundary_distributions(h).upper
        for x in range(1 << h.n):
            assert lower_bound_half_rare(x, h) == lower_bound_general(x, h)
            assert upper[x] == upper_bound_general(x, h)

    @given(half_rare_sets(min_n=2))
    def test_zero_pattern(self, h):
        # At most the empty set and the top singleton can have nonzero lower bound.
        for x in range(1 << h.n):
            if x not in (0, 1):
                assert lower_bound_half_rare(x, h) == 0

    @given(half_rare_sets(min_n=2))
    def test_tied_maxima_are_harmless(self, h):
        # With N >= 2, choosing any other maximal event for the singleton branch
        # yields a value <= 0, so the first-event convention cannot change output.
        total = sum(h.probs)
        for i, p in enumerate(h.probs):
            if p == h.probs[0] and i > 0:
                assert p - (total - p) <= 0


class TestBoundaryDistributions:
    def test_doublet_dense(self):
        bd = boundary_distributions(FIG_DOUBLET)
        assert bd.lower == (F(3, 20), F(1, 20), F(0), F(0))
        assert bd.upper == (F(11, 20), F(9, 20), F(2, 5), F(2, 5))

    def test_pentaplet_lower_all_zero(self):
        bd = boundary_distributions(FIG_PENTAPLET)
        assert all(v == 0 for v in bd.lower)

    def test_impossible_events(self):
        bd = boundary_distributions(marginals_from_values([0, 0, 0]))
        assert bd.lower[0] == bd.upper[0] == 1
        assert all(bd.lower[x] == bd.upper[x] == 0 for x in range(1, 8))

    def test_non_half_rare_example(self):
        bd = boundary_distributions(marginals_from_values(["0.7", "0.4"]))
        assert bd.lower[1] == F(3, 10)

    def test_deterministic_events(self):
        bd = boundary_distributions(marginals_from_values([1, 0]))
        assert bd.lower[1] == bd.upper[1] == 1

    @given(tied_marginal_sets())
    def test_matches_general_formulas_on_every_subset(self, m):
        bd = boundary_distributions(m)
        for x in range(1 << m.n):
            assert bd.lower[x] == lower_bound_general(x, m)
            assert bd.upper[x] == upper_bound_general(x, m)

    @pytest.mark.parametrize("m", [
        *(marginals_from_values([p]) for p in (0, F(1, 3), F(1, 2), F(2, 3), 1)),
        *(random_marginals(n, seed=n, half_rare=half_rare)
          for n in range(9, 13) for half_rare in (False, True)),
        # Ties, 0, 1/2 and 1 at N=11.
        marginals_from_values("1/2 0 3/4 1 1/4 3/4 1/4 0 1 1/2 1/3".split()),
    ], ids=lambda m: f"n{m.n}")
    def test_matches_general_formulas_at_n1_and_n9_to_12(self, m):
        # N=1 leaves the low half table empty of events; N=11 and 12 reach
        # past the 10 events the strategies draw, with uneven halves at odd N.
        bd = boundary_distributions(m)
        assert bd.lower == tuple(lower_bound_general(x, m) for x in range(1 << m.n))
        assert bd.upper == tuple(upper_bound_general(x, m) for x in range(1 << m.n))

    def test_labels_play_no_part(self):
        # Projecting would label both events "a^c"; the bounds never build
        # those labels.
        m = validate_marginals(make_event_set(("a", "a^c")), (F(7, 10), F(3, 10)))
        bd = boundary_distributions(m)
        assert bd.lower == tuple(lower_bound_general(x, m) for x in range(4))
        assert bd.upper == tuple(upper_bound_general(x, m) for x in range(4))

    @given(tied_marginal_sets())
    def test_level_maps_each_distinct_bound_once(self, m):
        calls = []

        def level(q):
            calls.append(q)
            return ("level", q)

        bd = boundary_distributions(m, level)
        assert len(calls) == m.n + 4
        plain = boundary_distributions(m)
        assert bd.lower == tuple(map(level, plain.lower))
        assert bd.upper == tuple(map(level, plain.upper))
        assert len({id(c) for c in bd.lower + bd.upper}) <= m.n + 4

    @pytest.mark.parametrize("p", [0, F(1, 2), 1])
    def test_lower_column_zero_pattern_at_n1(self, p):
        self.check_lower_column_zero_pattern(marginals_from_values([p]))

    @given(tied_marginal_sets())
    def test_lower_column_zero_pattern(self, m):
        self.check_lower_column_zero_pattern(m)

    @staticmethod
    def check_lower_column_zero_pattern(m):
        # The half-rare lower bound is 0 but at y = 0 and y = 1, which the
        # renumbering y = perm(X xor C) takes at X = C and X = C xor {the
        # first event in the new order}.  A level that makes a new object per
        # call tells the one shared 0 apart from those two cells.
        made = []

        def level(q):
            made.append([q])
            return made[-1]

        bd = boundary_distributions(m, level)
        assert len(made) == m.n + 4
        pm = half_rare_map(m.probs)
        c = ((1 << m.n) - 1) ^ pm.kept
        special = (c, c ^ (1 << pm.order[0]))
        # Outside the two cells, one object made from 0; the two are others.
        rest = [cell for x, cell in enumerate(bd.lower) if x not in special]
        at_c, at_first = (bd.lower[x] for x in special)
        assert all(cell is rest[0] and cell == [0] for cell in rest)
        assert at_c is not at_first
        assert all(cell is not at_c and cell is not at_first for cell in rest)
        assert [q for q, in bd.lower] == [lower_bound_general(x, m) for x in range(1 << m.n)]
        assert [q for q, in bd.upper] == [upper_bound_general(x, m) for x in range(1 << m.n)]

    @given(marginal_sets())
    def test_sandwich_and_sum_envelope(self, m):
        bd = boundary_distributions(m)
        star = independent_epd(m)
        for x in range(1 << m.n):
            assert bd.lower[x] <= star[x] <= bd.upper[x]
        assert sum(bd.lower) <= 1 <= sum(bd.upper)


class TestDoublet:
    def test_fig_doublet_rows(self):
        bd = doublet_bounds(F(9, 20), F(2, 5))
        assert bd.lower == (F(3, 20), F(1, 20), F(0), F(0))
        assert bd.upper == (F(11, 20), F(9, 20), F(2, 5), F(2, 5))

    def test_symmetric_edge(self):
        bd = doublet_bounds(F(1, 2), F(1, 2))
        assert bd.lower[0] == 0 and bd.upper[0] == F(1, 2)
        assert bd.lower[1] == 0 and bd.upper[1] == F(1, 2)

    def test_reads_probabilities_as_validate_marginals_does(self):
        # A float by its text, and text by the rules of -p.
        assert doublet_bounds(0.45, 0.4) == doublet_bounds("9/20", "0.40")
        assert doublet_bounds(0.45, 0.4).lower == (F(3, 20), F(1, 20), 0, 0)
        assert covariance_bounds_doublet(0.45, 0.4) == covariance_bounds_doublet(F(9, 20), F(2, 5))
        for bad, message in (("1e-300", "exceeds 200 digits"), ("0.4_5", "is not a decimal")):
            for build in (doublet_bounds, covariance_bounds_doublet):
                with pytest.raises(ValueError, match=message):
                    build(bad, "0")

    def test_rejects_bad_order(self):
        with pytest.raises(NotHalfRare):
            doublet_bounds(F(2, 5), F(9, 20))
        with pytest.raises(NotHalfRare):
            doublet_bounds(F(3, 5), F(1, 5))

    @given(half_rare_sets(min_n=2, max_n=2))
    def test_matches_dense_path(self, h):
        bd = doublet_bounds(*h.probs)
        dense = boundary_distributions(h)
        assert bd.lower == dense.lower
        assert bd.upper == dense.upper


class TestCovariance:
    def test_upper_attainment(self):
        # Mass of y pushed entirely inside x: p(xy) = p_y.
        d = TerraceDistribution(default_event_set(2), (11, 1, 0, 8), 20)
        cb = covariance_bounds_doublet(*FIG_DOUBLET.probs)
        assert d[3] - independent_epd(FIG_DOUBLET)[3] == cb.intervals[3][1] == F(11, 50)

    def test_lower_attainment(self):
        # x and y disjoint: p(xy) = 0.
        d = TerraceDistribution(default_event_set(2), (3, 9, 8, 0), 20)
        cb = covariance_bounds_doublet(*FIG_DOUBLET.probs)
        assert d[3] - independent_epd(FIG_DOUBLET)[3] == cb.intervals[3][0] == F(-9, 50)

    def test_fig_doublet_intervals(self):
        cb = covariance_bounds_doublet(F(9, 20), F(2, 5))
        assert cb.intervals[0] == (F(-9, 50), F(11, 50))
        assert cb.intervals[3] == (F(-9, 50), F(11, 50))
        assert cb.intervals[1] == (F(-11, 50), F(9, 50))
        assert cb.intervals[2] == (F(-11, 50), F(9, 50))

    def test_zero_probability_collapses(self):
        cb = covariance_bounds_doublet(F(1, 4), F(0))
        assert all(iv == (0, 0) for iv in cb.intervals)

    def test_symmetric_case(self):
        cb = covariance_bounds_doublet(F(1, 2), F(1, 2))
        assert cb.intervals[1] == (F(-1, 4), F(1, 4))

    @given(half_rare_sets(min_n=2, max_n=2))
    def test_intervals_straddle_zero(self, h):
        cb = covariance_bounds_doublet(*h.probs)
        for lo, hi in cb.intervals:
            assert lo <= 0 <= hi

    @given(half_rare_sets(min_n=2, max_n=2))
    def test_consistency_with_doublet_bounds(self, h):
        # Covariance intervals are the bound rows shifted by the independence value.
        bd = doublet_bounds(*h.probs)
        cb = covariance_bounds_doublet(*h.probs)
        for x in range(4):
            s = independent_value(x, h)
            assert cb.intervals[x] == (bd.lower[x] - s, bd.upper[x] - s)
