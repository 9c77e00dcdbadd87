"""The contract of the nine value types: built once by position or keyword,
equal and hashed by exact class and fields, printed as a dataclass prints, and
closed to assignment and deletion."""

import copy
import pickle
from fractions import Fraction

import pytest

from halfrare import (
    BoundaryDistributions,
    CovarianceBounds,
    EventSet,
    HalfRareMarginalSet,
    MarginalSet,
    PhenomenonMap,
    TerraceDistribution,
    VerificationReport,
)
from halfrare.oracle import SubsetRecord

F = Fraction
E1 = EventSet(("a",))
E2 = EventSet(("a", "b"))
R1 = "EventSet(labels=('a',))"
R2 = "EventSet(labels=('a', 'b'))"
W = TerraceDistribution(E1, (1, 3), 4)
RW = f"TerraceDistribution(events={R1}, numerators=(1, 3), den=4)"
M = MarginalSet(E1, (F(3, 4),))
RM = f"MarginalSet(events={R1}, probs=(Fraction(3, 4),))"
REC = dict(subset=1, closed_form_lower=F(1, 2), lp_min=F(1, 2),
           closed_form_upper=F(3, 4), lp_max=F(3, 4), witness_min=W, witness_max=W)
RREC = (f"SubsetRecord(subset=1, closed_form_lower=Fraction(1, 2), lp_min=Fraction(1, 2), "
        f"closed_form_upper=Fraction(3, 4), lp_max=Fraction(3, 4), "
        f"witness_min={RW}, witness_max={RW})")

# (class, fields in order, a different value of the same class, exact repr)
CASES = [
    (EventSet, dict(labels=("a", "b")), E1, R2),
    (MarginalSet, dict(events=E2, probs=(F(1, 2), F(1, 3))), M,
     f"MarginalSet(events={R2}, probs=(Fraction(1, 2), Fraction(1, 3)))"),
    (HalfRareMarginalSet, dict(events=E2, probs=(F(1, 2), F(1, 3))),
     HalfRareMarginalSet(E2, (F(1, 2), F(1, 4))),
     f"HalfRareMarginalSet(events={R2}, probs=(Fraction(1, 2), Fraction(1, 3)))"),
    (TerraceDistribution, dict(events=E1, numerators=(1, 3), den=4),
     TerraceDistribution(E1, (3, 1), 4), RW),
    (BoundaryDistributions, dict(events=E1, lower=(F(1, 4), 0), upper=(F(1, 4), F(3, 4))),
     BoundaryDistributions(E1, (0, 0), (1, 1)),
     f"BoundaryDistributions(events={R1}, lower=(Fraction(1, 4), 0), "
     f"upper=(Fraction(1, 4), Fraction(3, 4)))"),
    (CovarianceBounds, dict(events=E1, intervals=((F(-1, 4), F(1, 4)),)),
     CovarianceBounds(E1, ()),
     f"CovarianceBounds(events={R1}, intervals=((Fraction(-1, 4), Fraction(1, 4)),))"),
    (PhenomenonMap, dict(kept=1, order=(1, 0)), PhenomenonMap(3, (1, 0)),
     "PhenomenonMap(kept=1, order=(1, 0))"),
    (SubsetRecord, REC, SubsetRecord(**{**REC, "lp_max": F(1)}), RREC),
    (VerificationReport, dict(marginals=M, records=(SubsetRecord(**REC),)),
     VerificationReport(M, ()), f"VerificationReport(marginals={RM}, records=({RREC},))"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_built_by_position_or_keyword(cls, fields, other, text):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for value in (by_position, by_keyword):
        assert type(value) is cls
        assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())
    values, first = tuple(fields.values()), next(iter(fields))
    for args, kwargs in (((*values, None), {}), (values, {"extra": None}),
                         (values[:1], {first: values[0]})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_equal_and_hashed_by_class_and_fields(cls, fields, other, text):
    value = cls(**fields)
    assert value == cls(*fields.values()) and not value != cls(**fields)
    assert hash(value) == hash(cls(**fields))
    assert value != other and type(other) is cls
    assert value != tuple(fields.values())
    assert len({value, cls(**fields), other}) == 2


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_pickled_copied_and_matched_by_fields(cls, fields, other, text):
    value = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and type(twin) is cls
    assert cls.__match_args__ == tuple(fields)
    match value:
        case MarginalSet(events, probs):
            assert (events, probs) == (value.events, value.probs)


def test_half_rare_set_never_equals_a_marginal_set():
    probs = (F(1, 2), F(1, 3))
    assert HalfRareMarginalSet(E2, probs) != MarginalSet(E2, probs)
    assert MarginalSet(E2, probs) != HalfRareMarginalSet(E2, probs)


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, fields, other, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_fields_are_set_once(cls, fields, other, text):
    value = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())

