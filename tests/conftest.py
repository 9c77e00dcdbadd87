from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

# Exact-arithmetic cases have heavy-tailed runtimes; wall-clock deadlines
# only add flakiness.
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

from halfrare import marginals_from_values
from halfrare.core import HALF, HalfRareMarginalSet, default_event_set

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
