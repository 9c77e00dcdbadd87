from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfrare import (
    EventSet,
    HalfRareMarginalSet,
    MarginalSet,
    TerraceDistribution,
    indicator_string,
    make_event_set,
    marginals_from_values,
    subset_iter,
    validate_marginals,
)
from halfrare.core import (
    default_event_set,
    format_decimal,
    format_exact,
    parse_probability,
    subset_from_indicator,
    subset_labels,
)
from halfrare.errors import (
    DuplicateLabel,
    EmptySet,
    LengthMismatch,
    NotHalfRare,
    ProbabilityOutOfRange,
    TooLarge,
)


class TestEventSet:
    def test_construction_preserves_order(self):
        es = make_event_set(["x", "y"])
        assert es.n == 2
        assert es.labels == ("x", "y")

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            make_event_set(["x", "x"])

    def test_empty(self):
        with pytest.raises(EmptySet):
            make_event_set([])

    def test_too_large(self):
        with pytest.raises(TooLarge):
            make_event_set([f"x{i}" for i in range(21)])
        make_event_set([f"x{i}" for i in range(20)])  # cap itself is fine

    def test_direct_construction_checks(self):
        with pytest.raises(EmptySet):
            EventSet(())
        with pytest.raises(DuplicateLabel):
            EventSet(("x", "x"))
        with pytest.raises(TooLarge):
            EventSet(tuple(f"x{i}" for i in range(21)))


class TestMarginals:
    def test_valid_doublet(self):
        m = validate_marginals(make_event_set(["x", "y"]), [Fraction(9, 20), Fraction(2, 5)])
        assert m.probs == (Fraction(9, 20), Fraction(2, 5))

    def test_out_of_range(self):
        with pytest.raises(ProbabilityOutOfRange):
            validate_marginals(make_event_set(["x"]), [Fraction(3, 2)])

    def test_direct_construction_checks(self):
        es = make_event_set(["x"])
        with pytest.raises(ProbabilityOutOfRange):
            MarginalSet(es, (Fraction(3, 2),))
        with pytest.raises(LengthMismatch):
            MarginalSet(es, (Fraction(1, 2), Fraction(1, 2)))

    def test_all_zero_is_valid(self):
        m = marginals_from_values([0, 0, 0])
        assert m.is_half_rare()

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_marginals(make_event_set(["x", "y"]), [Fraction(1, 4)])

    def test_half_rare_rejects_bad_order(self):
        with pytest.raises(NotHalfRare):
            HalfRareMarginalSet(marginals_from_values(["0.40", "0.45"]))
        with pytest.raises(NotHalfRare):
            HalfRareMarginalSet(marginals_from_values(["0.6", "0.4"]))


class TestSubsets:
    def test_indicator_endpoints(self):
        assert indicator_string(0, 3) == "000"
        assert indicator_string(7, 3) == "111"
        assert indicator_string(2, 3) == "010"

    def test_subset_iter_small(self):
        assert list(subset_iter(1)) == [0, 1]
        assert list(subset_iter(2)) == [0, 1, 2, 3]

    def test_subset_iter_counts(self):
        for n in range(1, 11):
            seen = list(subset_iter(n))
            assert len(seen) == len(set(seen)) == 2**n

    def test_labels(self):
        es = make_event_set(["a", "b", "c"])
        assert subset_labels(5, es) == ("a", "c")

    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_indicator_round_trip(self, n, data):
        x = data.draw(st.integers(min_value=0, max_value=2**n - 1))
        s = indicator_string(x, n)
        assert len(s) == n
        assert subset_from_indicator(s) == x


class TestRationals:
    def test_decimal_parse(self):
        assert parse_probability("0.45") == Fraction(9, 20)
        assert parse_probability("9/20") == Fraction(9, 20)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=6))
    def test_decimal_round_trip(self, mantissa, places):
        text = f"{mantissa // 10**places}.{mantissa % 10**places:0{places}d}"
        q = parse_probability(text)
        assert parse_probability(format_decimal(q, places)) == q

    def test_format_decimal_trims(self):
        assert format_decimal(Fraction(1, 20)) == "0.05"
        assert format_decimal(Fraction(0)) == "0"
        assert format_decimal(Fraction(1)) == "1"
        assert format_decimal(Fraction(1, 3), 6) == "0.333333"

    def test_format_exact(self):
        assert format_exact(Fraction(9, 20)) == "9/20"
        assert format_exact(Fraction(0)) == "0"


class TestTerraceDistribution:
    def test_normalization_is_exact(self):
        es = default_event_set(1)
        with pytest.raises(ProbabilityOutOfRange):
            TerraceDistribution(es, (Fraction(1, 3), Fraction(1, 3)))

    def test_value_range(self):
        es = default_event_set(1)
        with pytest.raises(ProbabilityOutOfRange):
            TerraceDistribution(es, (Fraction(3, 2), Fraction(-1, 2)))

    def test_induced_marginals(self):
        es = default_event_set(2)
        d = TerraceDistribution(
            es, (Fraction(3, 20), Fraction(9, 20), Fraction(0), Fraction(2, 5))
        )
        assert d.induced_marginals() == (Fraction(17, 20), Fraction(2, 5))
