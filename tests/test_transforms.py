from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfrare import apply_phenomenon, independent_epd, marginals_from_values
from halfrare.errors import IndexOutOfRange, LengthMismatch
from halfrare.transforms import PhenomenonMap, half_rare_map

from conftest import independent_value, marginal_sets, unit_fraction

F = Fraction


class TestIndependentEpd:
    def test_fig_doublet(self):
        d = independent_epd(marginals_from_values(["0.45", "0.40"]))
        assert d.atoms == (F(33, 100), F(27, 100), F(11, 50), F(9, 50))

    def test_impossible_events(self):
        d = independent_epd(marginals_from_values([0, 0]))
        assert d.atoms == (1, 0, 0, 0)

    def test_fair_coins_are_uniform(self):
        n = 4
        d = independent_epd(marginals_from_values([F(1, 2)] * n))
        assert all(v == F(1, 2**n) for v in d.atoms)

    @given(marginal_sets())
    def test_normalization_and_marginal_recovery(self, m):
        d = independent_epd(m)
        assert sum(d.atoms) == 1  # TerraceDistribution also enforces this
        assert d.induced_marginals() == m.probs

    @given(marginal_sets(), st.data())
    def test_single_cell_matches_table(self, m, data):
        x = data.draw(st.integers(min_value=0, max_value=2**m.n - 1))
        assert independent_value(x, m) == independent_epd(m)[x]

    @given(st.data())
    def test_every_cell_matches_product(self, data):
        # Ties come from a small pool; 0, 1/2 and 1 are always in it.
        pool = [F(0), F(1, 2), F(1)] + data.draw(st.lists(unit_fraction, min_size=1, max_size=3))
        probs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
        m = marginals_from_values(probs)
        d = independent_epd(m)
        assert d.atoms == tuple(independent_value(x, m) for x in range(1 << m.n))


class TestHalfRareProjection:
    def test_complements_likely_event(self):
        m = marginals_from_values(["0.7", "0.4"])
        pm = half_rare_map(m.probs)
        h = pm.map_marginals(m)
        assert h.probs == (F(2, 5), F(3, 10))
        assert h.events.labels == ("x2", "x1^c")
        assert pm.kept == 0b10
        assert pm.order == (1, 0)

    def test_identity_when_already_half_rare(self):
        m = marginals_from_values(["0.45", "0.40"])
        pm = half_rare_map(m.probs)
        h = pm.map_marginals(m)
        assert h.probs == m.probs
        assert pm == PhenomenonMap(0b11, tuple(range(2)))

    def test_labels_follow_the_map(self):
        m = marginals_from_values(["0.7", "0.4"])
        pm = PhenomenonMap(0b10, tuple(range(2)))
        t = pm.map_marginals(m)
        assert t.events.labels == ("x1^c", "x2")
        assert t.probs == pm.map_probs(m.probs) == (F(3, 10), F(2, 5))

    def test_half_is_kept(self):
        m = marginals_from_values([F(1, 2), F(1, 2)])
        pm = half_rare_map(m.probs)
        h = pm.map_marginals(m)
        assert h.probs == m.probs
        assert pm == PhenomenonMap(0b11, tuple(range(2)))

    @given(marginal_sets())
    def test_output_is_half_rare(self, m):
        h = half_rare_map(m.probs).map_marginals(m)
        assert h.is_half_rare()

    @given(marginal_sets())
    def test_idempotence(self, m):
        h = half_rare_map(m.probs).map_marginals(m)
        pm2 = half_rare_map(h.probs)
        h2 = pm2.map_marginals(h)
        assert h2.probs == h.probs
        assert pm2 == PhenomenonMap((1 << h.n) - 1, tuple(range(h.n)))


@st.composite
def phenomenon_maps(draw, n):
    kept = draw(st.integers(min_value=0, max_value=2**n - 1))
    order = tuple(draw(st.permutations(range(n))))
    return PhenomenonMap(kept, order)


def _image(pm, x):
    """perm(x xor C), one event at a time."""
    w = x ^ ((1 << pm.n) - 1) ^ pm.kept
    return sum(1 << j for j, i in enumerate(pm.order) if (w >> i) & 1)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_half_tables_match_definition(n, data):
    # n = 1 leaves the low half empty; an odd n splits unevenly.
    pm = data.draw(phenomenon_maps(n))
    assert pm.n == n
    h = n // 2
    lo, hi = pm.half_tables()
    assert len(lo) == 2**h and len(hi) == 2 ** (n - h)
    assert not any(a & b for a in lo for b in hi)
    mask = (1 << h) - 1
    assert [lo[x & mask] | hi[x >> h] for x in range(1 << n)] == [
        _image(pm, x) for x in range(1 << n)
    ]


@pytest.mark.parametrize(
    "kept, order",
    [(0, (0, 0)), (0, (0, 2)), (-1, (0, 1)), (4, (0, 1)), (0, (0.0, 1.0)), (1.5, (0, 1))],
    ids=["repeated-event", "event-outside", "kept-negative", "kept-past-the-events",
         "order-of-floats", "kept-a-float"],
)
def test_phenomenon_map_rejects_a_bad_order_or_kept_set(kept, order):
    with pytest.raises(IndexOutOfRange):
        PhenomenonMap(kept, order)


class TestApplyPhenomenon:
    def test_identity(self):
        d = independent_epd(marginals_from_values(["0.45", "0.40"]))
        assert apply_phenomenon(d.atoms, PhenomenonMap(0b11, tuple(range(2)))) == d.atoms

    def test_full_complement_reverses(self):
        d = independent_epd(marginals_from_values(["0.45", "0.40"]))
        out = apply_phenomenon(d.atoms, PhenomenonMap(0, tuple(range(2))))
        assert out == tuple(reversed(d.atoms))

    def test_double_complement_restores(self):
        d = independent_epd(marginals_from_values(["0.45", "0.40", "0.1"]))
        pm = PhenomenonMap(0b010, tuple(range(3)))
        assert apply_phenomenon(apply_phenomenon(d.atoms, pm), pm) == d.atoms

    def test_dimension_mismatch(self):
        with pytest.raises(LengthMismatch):
            apply_phenomenon((F(1),), PhenomenonMap(0b11, tuple(range(2))))

    @given(st.integers(min_value=1, max_value=5), st.data())
    def test_bijection(self, n, data):
        pm = data.draw(phenomenon_maps(n))
        values = tuple(data.draw(st.lists(unit_fraction, min_size=2**n, max_size=2**n)))
        out = apply_phenomenon(values, pm)
        assert sorted(out) == sorted(values)
        assert all(out[_image(pm, x)] == values[x] for x in range(2**n))

    @given(marginal_sets())
    def test_commutes_with_independence(self, m):
        pm = half_rare_map(m.probs)
        direct = independent_epd(pm.map_marginals(m)).atoms
        transported = apply_phenomenon(independent_epd(m).atoms, pm)
        assert direct == transported
