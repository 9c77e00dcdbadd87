import random
from decimal import Decimal
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
    validate_marginals,
)
from halfrare.cli import _JSON_ITEM_SEP, _bound_rows
from halfrare.core import (
    MAX_PROBABILITY_DIGITS,
    default_event_set,
    format_decimal,
    format_exact,
    parse_probability,
)
from halfrare.errors import (
    DuplicateLabel,
    EmptySet,
    InvalidLabel,
    LengthMismatch,
    NotHalfRare,
    ProbabilityOutOfRange,
    TooLarge,
)
from halfrare.figure import render_figure
from halfrare.oracle import lp_extremize_terrace


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

    @pytest.mark.parametrize(
        "build, message",
        [(lambda: default_event_set(21), "N=21 exceeds the dense cap 20"),
         (lambda: lp_extremize_terrace(0, marginals_from_values([0] * 7), "min"),
          "N=7 exceeds the LP cap 6"),
         (lambda: render_figure(marginals_from_values([0] * 9)), "N=9 exceeds the figure cap 8")],
        ids=["dense", "LP", "figure"],
    )
    def test_cap_messages(self, build, message):
        with pytest.raises(TooLarge) as e:
            build()
        assert str(e.value) == message

    def test_direct_construction_checks(self):
        with pytest.raises(EmptySet):
            EventSet(())
        with pytest.raises(DuplicateLabel):
            EventSet(("x", "x"))
        with pytest.raises(TooLarge):
            EventSet(tuple(f"x{i}" for i in range(21)))

    @pytest.mark.parametrize("label", ["a\nb", "a\rb", "\t", "\x00", "\x7f", "\x85"])
    def test_control_characters_rejected(self, label):
        with pytest.raises(InvalidLabel):
            make_event_set(["x", label])

    def test_printable_labels_accepted(self):
        make_event_set(["a,b", 'q"', "é", "", " ", "\u2028"])


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
        # Only exact items: a float, say, would fail later, in the bounds.
        for item, kind in ((0.5, "float"), (Decimal("0.5"), "Decimal"), ("1/2", "str")):
            with pytest.raises(TypeError) as e:
                MarginalSet(default_event_set(2), (1, item))
            assert str(e.value) == f"probability #1 is a {kind}, not exact"
        assert MarginalSet(default_event_set(2), (1, 0)).probs == (1, 0)

    def test_all_zero_is_valid(self):
        m = marginals_from_values([0, 0, 0])
        assert m.is_half_rare()

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_marginals(make_event_set(["x", "y"]), [Fraction(1, 4)])

    def test_half_rare_rejects_bad_order(self):
        with pytest.raises(NotHalfRare):
            HalfRareMarginalSet(default_event_set(2), (Fraction(2, 5), Fraction(9, 20)))
        with pytest.raises(NotHalfRare):
            HalfRareMarginalSet(default_event_set(2), (Fraction(3, 5), Fraction(2, 5)))

    def test_half_rare_is_a_marginal_set(self):
        assert issubclass(HalfRareMarginalSet, MarginalSet)
        h = HalfRareMarginalSet(default_event_set(2), (Fraction(9, 20), Fraction(2, 5)))
        assert h.n == 2 and h.probs[0] == Fraction(9, 20)

    def test_half_rare_checks_range_before_order(self):
        es = make_event_set(["x"])
        with pytest.raises(ProbabilityOutOfRange):
            HalfRareMarginalSet(es, (Fraction(3, 2),))
        with pytest.raises(LengthMismatch):
            HalfRareMarginalSet(es, (Fraction(1, 2), Fraction(1, 2)))


class TestSubsets:
    def test_indicator_endpoints(self):
        assert indicator_string(0, 3) == "000"
        assert indicator_string(7, 3) == "111"
        assert indicator_string(2, 3) == "010"

    @staticmethod
    def rows(labels, sep):
        """The block sizes, and each row's (indicator, labels) rebuilt from
        its block's pieces: low string then high, head then tail."""
        m = marginals_from_values(["1/3"] * len(labels))
        blocks = [(word, tail, list(rows))
                  for word, tail, rows in _bound_rows(m, format_exact, labels, sep)]
        sizes = [len(rows) for _, _, rows in blocks]
        return sizes, [(w + word, head + tail)
                       for word, tail, rows in blocks for w, head, *_ in rows]

    def test_labels(self):
        for sep in ("+", _JSON_ITEM_SEP):
            _, rows = self.rows(("a", "b", "c"), sep)
            assert rows[5] == ("101", f"a{sep}c")

    @pytest.mark.parametrize("n", range(1, 11))
    def test_subsets_match_definition(self, n):
        # Without an empty label, and with one at every position.
        for empty in (None, *range(n)):
            labels = tuple("" if i == empty else f"e{i}" for i in range(n))
            for sep in ("+", _JSON_ITEM_SEP):
                expected = [
                    (
                        indicator_string(x, n),
                        sep.join(lab for i, lab in enumerate(labels) if (x >> i) & 1),
                    )
                    for x in range(1 << n)
                ]
                sizes, rows = self.rows(labels, sep)
                assert sizes == [1 << n // 2] * (1 << n - n // 2)
                assert rows == expected

    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_indicator_round_trip(self, n, data):
        x = data.draw(st.integers(min_value=0, max_value=2**n - 1))
        s = indicator_string(x, n)
        assert len(s) == n and set(s) <= {"0", "1"}
        assert int(s[::-1], 2) == x


class TestRationals:
    def test_decimal_parse(self):
        assert parse_probability("0.45") == Fraction(9, 20)
        assert parse_probability("9/20") == Fraction(9, 20)

    def test_digit_cap(self):
        cap = MAX_PROBABILITY_DIGITS
        assert parse_probability(f"1e-{cap}") == Fraction(1, 10**cap)
        assert parse_probability("0." + "0" * (cap - 1) + "1") == Fraction(1, 10**cap)
        assert parse_probability("1/" + "9" * cap) == Fraction(1, 10**cap - 1)
        for text in (f"1e-{cap + 1}", "0." + "0" * cap + "1", "1/" + "9" * (cap + 1),
                     f"1e{cap + 1}", "1e-2000000"):
            with pytest.raises(ValueError):
                parse_probability(text)

    @pytest.mark.parametrize(
        "text, message",
        [("0.4_5", "'0.4_5' is not a decimal or a fraction a/b, b > 0"),
         ("1e-201", "'1e-201' exceeds 200 digits"),
         # Integer digits count too, also past the int string limit.
         ("9" * 250, f"'{'9' * 24}' exceeds 200 digits"),
         ("9" * 5000, f"'{'9' * 24}' exceeds 200 digits")],
        ids=["separator", "digits", "integer-digits", "integer-digits-over-the-int-limit"],
    )
    def test_library_text_is_read_as_the_cli_reads_it(self, text, message):
        # Digit separators would pass Fraction() from Python 3.11 on.
        for read in (parse_probability, lambda t: marginals_from_values([t])):
            with pytest.raises(ValueError) as e:
                read(text)
            assert str(e.value) == message

    def test_library_values_keep_their_value(self):
        # A float is read as written, not by its binary value.
        m = marginals_from_values([" 1/3 ", "1e-200", Fraction(1, 3), 1, 0.1, 1e-05])
        assert m.probs == (Fraction(1, 3), Fraction(1, 10**200), Fraction(1, 3), Fraction(1),
                           Fraction(1, 10), Fraction(1, 10**5))

    @pytest.mark.parametrize(
        "value, message",
        [(float("nan"), "'nan' is not a decimal or a fraction a/b, b > 0"),
         (float("-inf"), "'-inf' is not a decimal or a fraction a/b, b > 0"),
         (1e-300, "'1e-300' exceeds 200 digits")],
        ids=["nan", "inf", "digits"],
    )
    def test_library_floats_are_read_as_text(self, value, message):
        with pytest.raises(ValueError) as e:
            marginals_from_values([value])
        assert str(e.value) == message

    @given(st.integers(1, 6).flatmap(
        lambda places: st.tuples(st.integers(0, 10**places), st.just(places))))
    def test_decimal_round_trip(self, case):
        mantissa, places = case  # a value in [0, 1]
        text = f"{mantissa // 10**places}.{mantissa % 10**places:0{places}d}"
        q = parse_probability(text)
        assert parse_probability(format_decimal([q.numerator], q.denominator, places)[0]) == q

    def test_format_decimal_trims(self):
        assert format_decimal([1], 20) == ["0.05"]
        assert format_decimal([0], 1) == ["0"]
        assert format_decimal([1], 1) == ["1"]
        assert format_decimal([1], 3, 6) == ["0.333333"]
        assert format_decimal([3], 6) == ["0.5"]  # an unreduced fraction
        assert format_decimal([], 7) == []

    def test_format_exact(self):
        assert format_exact([9], 20) == ["9/20"]
        assert format_exact([0], 1) == ["0"]
        assert format_exact([0], 7) == ["0"]
        assert format_exact([6], 6) == ["1"]
        assert format_exact([-18], 40) == ["-9/20"]
        assert format_exact([], 7) == []

    @given(st.lists(st.integers(-(10**30), 10**30), max_size=8), st.integers(1, 10**30))
    def test_format_exact_reduces_as_fraction_prints(self, nums, den):
        assert format_exact(nums, den) == [str(Fraction(num, den)) for num in nums]


def reference_format_decimal(q: Fraction, digits: int) -> str:
    """The Fraction formula format_decimal replaces, kept as its reference."""
    scaled = round(q * 10**digits)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}".rstrip("0").rstrip(".")


#: Decimal places: every count up to 40, and the --digits cap.
DIGITS = st.one_of(st.integers(0, 40), st.just(640))


@st.composite
def unit_columns(draw):
    """(nums, den): numerators of probabilities over one denominator, often 0
    and den."""
    den = draw(st.integers(1, 10**30))
    return draw(st.lists(st.sampled_from([0, den]) | st.integers(0, den), max_size=8)), den


@st.composite
def tie_columns(draw):
    """(nums, den, digits): numerators over one denominator den = 2 * 10^d * b,
    so that 10^d * num / den is q exactly for num = 2bq and the tie k + 1/2
    for num = (2k + 1) * b.  The column mixes 0, den, ties with k even and
    odd next to 0 and to 1, and values at and next to q = 0, 1, 10^d - 1 and
    10^d: every num/den lies in [0, 1]."""
    digits = draw(DIGITS)
    b = draw(st.integers(1, 10**12))
    scale, den = 10**digits, 2 * 10**digits * b
    item = st.one_of(
        st.sampled_from([0, den]),
        (st.integers(0, min(10**3, scale - 1)) | st.integers(max(0, scale - 10**3), scale - 1))
        .map(lambda k: (2 * k + 1) * b),
        st.tuples(st.sampled_from([0, 1, scale - 1, scale]), st.integers(-1, 1)).map(
            lambda t: 2 * b * t[0] + t[1]).filter(lambda num: 0 <= num <= den),
        st.integers(0, den),
    )
    return draw(st.lists(item, min_size=1, max_size=12)), den, digits


class TestIntegerRounding:
    @given(unit_columns(), DIGITS)
    def test_random_fractions(self, column, digits):
        nums, den = column
        assert format_decimal(nums, den, digits) == [
            reference_format_decimal(Fraction(num, den), digits) for num in nums
        ]

    @given(tie_columns())
    def test_exact_ties(self, column):
        nums, den, digits = column
        assert format_decimal(nums, den, digits) == [
            reference_format_decimal(Fraction(num, den), digits) for num in nums
        ]
        assert format_exact(nums, den) == [str(Fraction(num, den)) for num in nums]

    def test_ties_of_both_parities(self):
        assert format_decimal([1], 2, 0) == ["0"]
        assert format_decimal([1, 3, 5, 19], 20, 1) == ["0", "0.2", "0.2", "1"]
        assert format_decimal([25, 35], 1000, 2) == ["0.02", "0.04"]

    def test_every_digit_count(self):
        rng = random.Random(640)
        for digits in range(641):
            den = rng.randint(1, 10**rng.randint(1, 60))
            nums = [rng.randint(0, den), den, 0, den // 2, (den + 1) // 2]
            assert format_decimal(nums, den, digits) == [
                reference_format_decimal(Fraction(num, den), digits) for num in nums
            ]


class TestTerraceDistribution:
    def test_integer_construction_checks(self):
        es = default_event_set(1)
        with pytest.raises(ProbabilityOutOfRange):
            TerraceDistribution(es, (3, -1), 2)  # a negative numerator
        with pytest.raises(LengthMismatch):
            TerraceDistribution(es, (1, 1, 0), 2)
        with pytest.raises(ProbabilityOutOfRange):
            TerraceDistribution(es, (1, 1), 3)  # sums to 2/3
        with pytest.raises(ProbabilityOutOfRange):
            TerraceDistribution(es, (0, 0), 0)

    @pytest.mark.parametrize("numerators, den, field", [
        ((0.5, 0.5), 1, "numerators"),
        ((Fraction(1, 2), Fraction(1, 2)), 1, "numerators"),
        ((1, 0.0), 1, "numerators"),
        ((1, 1), 2.0, "den"),
    ], ids=["floats", "fractions", "one-float", "den-a-float"])
    def test_holds_ints(self, numerators, den, field):
        with pytest.raises(TypeError, match=f"^{field} must be"):
            TerraceDistribution(default_event_set(1), numerators, den)

    def test_atoms_view(self):
        d = TerraceDistribution(default_event_set(1), (2, 4), 6)
        assert d.atoms == (Fraction(1, 3), Fraction(2, 3))
        assert d[1] == Fraction(2, 3)
        # The same atoms over another denominator: another value.
        reduced = TerraceDistribution(d.events, (1, 2), 3)
        assert reduced.atoms == d.atoms and reduced != d

    def test_induced_marginals(self):
        es = default_event_set(2)
        d = TerraceDistribution(es, (3, 9, 0, 8), 20)
        assert d.induced_marginals() == (Fraction(17, 20), Fraction(2, 5))
