from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

# Exact-arithmetic cases have heavy-tailed runtimes; wall-clock deadlines
# only add flakiness.
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

from halfrare import marginals_from_values
from halfrare.core import HALF, ONE, ZERO, HalfRareMarginalSet, default_event_set


def independent_value(x, m):
    """Terrace probability at X under independence, one product per subset:
    the reference for the table of `independent_epd`."""
    v = ONE
    for i, p in enumerate(m.probs):
        v *= p if (x >> i) & 1 else ONE - p
    return v


unit_fraction = st.fractions(min_value=0, max_value=1, max_denominator=32)


@st.composite
def marginal_sets(draw, min_n=1, max_n=6):
    probs = draw(st.lists(unit_fraction, min_size=min_n, max_size=max_n))
    return marginals_from_values(probs)


@st.composite
def half_rare_sets(draw, min_n=1, max_n=6):
    probs = draw(st.lists(unit_fraction, min_size=min_n, max_size=max_n))
    probs = sorted((min(p, HALF) for p in probs), reverse=True)
    return HalfRareMarginalSet(default_event_set(len(probs)), tuple(probs))


@st.composite
def tied_marginal_sets(draw, max_n=10):
    """Marginal sets of up to `max_n` events that often repeat a probability
    and often hit 0, 1/2 or 1, where the projection's complements and sort
    ties decide the renumbering."""
    edges = st.sampled_from([ZERO, HALF, ONE])
    pool = draw(st.lists(edges | unit_fraction, min_size=1, max_size=3))
    probs = draw(st.lists(
        st.sampled_from(pool) | edges | unit_fraction, min_size=1, max_size=max_n
    ))
    return marginals_from_values(probs)
