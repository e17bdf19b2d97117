import copy
import pickle

import pytest

from cohiggs import (
    CartanType,
    CoHiggsMatrix,
    CriterionReport,
    HNType,
    HomogPoly,
    OracleVerdict,
    OracleWitness,
    PrimeField,
    ReductiveGroup,
    RootViolation,
    SplittingType,
    SymplecticSplitting,
    build_root_system,
    evaluate_criterion,
    parse_group,
)
from cohiggs.frozen import Frozen
from cohiggs.oracle import LineSubbundle
from cohiggs.strata import StratumRecord
from reference import zero_field

F5 = PrimeField(5)


def _instances():
    # one instance per value type, each built afresh on every call
    return [
        CartanType("A", 2),
        ReductiveGroup((CartanType("C", 3), CartanType("A", 1)), 2),
        HNType(((1, 2),), (3,)),
        SplittingType((1, 0)),
        SymplecticSplitting((2, 1)),
        PrimeField(5),
        HomogPoly(PrimeField(5), 1, (1, 7)),
        zero_field(SplittingType((0, -1)), PrimeField(5)),
        LineSubbundle(
            SplittingType((1, 0)),
            PrimeField(5),
            0,
            (HomogPoly(PrimeField(5), 1, (1, 2)), HomogPoly(PrimeField(5), 0, (3,))),
        ),
        OracleWitness(1, 0, ("1", "x")),
        OracleVerdict("stable", "F5", "1/2", OracleWitness(2, 1, ("y",))),
        RootViolation(0, 1, 3),
        evaluate_criterion(parse_group("A1"), HNType(((3,),))),
        StratumRecord(HNType(((0,),)), 6, 4, 2, True),
    ]


def _zero(d):
    return f"HomogPoly(field=PrimeField(p=5), degree={d}, coeffs={(0,) * (d + 1)})"


# the reprs a frozen dataclass with the same fields prints for these instances
PINNED_REPRS = [
    "CartanType(family='A', rank=2)",
    "ReductiveGroup(simple_factors=(CartanType(family='C', rank=3), "
    "CartanType(family='A', rank=1)), central_rank=2)",
    "HNType(simple_values=((1, 2),), central_degrees=(3,))",
    "SplittingType(degrees=(1, 0))",
    "SymplecticSplitting(half_degrees=(2, 1))",
    "PrimeField(p=5)",
    "HomogPoly(field=PrimeField(p=5), degree=1, coeffs=(1, 2))",
    "CoHiggsMatrix(splitting=SplittingType(degrees=(0, -1)), field=PrimeField(p=5), "
    f"entries=(({_zero(2)}, {_zero(3)}), ({_zero(1)}, {_zero(2)})))",
    "LineSubbundle(splitting=SplittingType(degrees=(1, 0)), field=PrimeField(p=5), degree=0, "
    "sections=(HomogPoly(field=PrimeField(p=5), degree=1, coeffs=(1, 2)), "
    "HomogPoly(field=PrimeField(p=5), degree=0, coeffs=(3,))))",
    "OracleWitness(rank=1, degree=0, sections=('1', 'x'))",
    "OracleVerdict(mode='stable', field_name='F5', slope='1/2', "
    "witness=OracleWitness(rank=2, degree=1, sections=('y',)))",
    "RootViolation(factor=0, root=1, value=3)",
    "CriterionReport(violating_roots=(RootViolation(factor=0, root=0, value=3),), "
    "adjoint_multiplicities=((3, 0, -3), (1, 1, 1)))",
    "StratumRecord(hn=HNType(simple_values=((0,),), central_degrees=()), dim_cohiggs=6, "
    "dim_aut=4, dim_stratum=2, is_generic=True)",
]

IDS = [type(obj).__name__ for obj in _instances()]


def test_criterion_report_expands_its_table_to_the_adjoint_splitting():
    # the report holds the multiplicity table that its repr pins; expanded,
    # it is the splitting the report held before it held the table
    report = _instances()[IDS.index("CriterionReport")]
    assert repr(report.adjoint_degrees) == "SplittingType(degrees=(3, 0, -3))"


def _fields(obj):
    return tuple(getattr(obj, name) for name in obj.__slots__)


def test_every_value_type_is_pinned():
    assert len(set(IDS)) == len(IDS) == 14
    assert all(isinstance(obj, Frozen) for obj in _instances())


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_repr_matches_the_dataclass_repr(index):
    assert repr(_instances()[index]) == PINNED_REPRS[index]


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_equal_instances_are_equal_with_equal_hashes(index):
    a, b = _instances()[index], _instances()[index]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))


# the value types without checks of their own, which take Frozen's constructor
RECORDS = ["OracleWitness", "OracleVerdict", "RootViolation", "CriterionReport", "StratumRecord"]


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_constructor_takes_the_fields_in_slot_order(index):
    obj = _instances()[index]
    cls, values = type(obj), _fields(obj)
    assert cls(*values) == obj
    # the checked types also take their fields by keyword; records do not
    if IDS[index] not in RECORDS:
        assert cls(**dict(zip(obj.__slots__, values))) == obj


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_assignment_and_deletion_raise(index):
    obj = _instances()[index]
    for name in obj.__slots__:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = None
    assert repr(obj) == PINNED_REPRS[index]


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_copies_and_pickles_are_equal(index):
    obj = _instances()[index]
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj


@pytest.mark.parametrize("name", RECORDS)
def test_record_constructor_raises_type_error_as_a_call_does(name):
    obj = _instances()[IDS.index(name)]
    cls, names, values = type(obj), obj.__slots__, _fields(obj)
    calls = [
        # the first field is missing; every record's first field is required
        lambda: cls(**dict(zip(names[1:], values[1:]))),
        lambda: cls(*values, no_such_field=1),
        lambda: cls(*values, **{names[0]: values[0]}),
        lambda: cls(*values, None),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_equality_needs_the_same_class():
    assert SplittingType((1, 0)) != (1, 0)
    assert SplittingType((1, 0)) != SymplecticSplitting((1, 0))
    assert PrimeField(5) != 5
    assert RootViolation(0, 1, 3) != (0, 1, 3)
    assert CartanType("A", 2) != CartanType("A", 3)
    assert HomogPoly(F5, 1, (1, 2)) != HomogPoly(F5, 1, (1, 3))
    assert HomogPoly(F5, 1, (1, 2)) == HomogPoly(PrimeField(5), 1, (6, 7))


def test_defaults_and_keywords():
    assert ReductiveGroup() == ReductiveGroup((), 0)
    assert ReductiveGroup(central_rank=1) == parse_group("+z1")
    assert HNType() == HNType((), ())
    assert HNType(central_degrees=[2]).central_degrees == (2,)
    assert HomogPoly(field=F5, degree=0, coeffs=(3,)) == HomogPoly(F5, 0, (3,))


@pytest.mark.parametrize("name", RECORDS)
def test_records_take_every_field_by_position_without_defaults(name):
    obj = _instances()[IDS.index(name)]
    cls, names, values = type(obj), obj.__slots__, _fields(obj)
    for cut in range(len(values)):
        with pytest.raises(TypeError, match=f"takes {len(names)} fields but {cut} were given"):
            cls(*values[:cut])
    with pytest.raises(TypeError):
        cls(**dict(zip(names, values)))


def test_root_systems_are_cached_by_value():
    # lru_cache keys on the Cartan type's hash and equality
    assert build_root_system(CartanType("E", 6)) is build_root_system(CartanType("E", 6))
