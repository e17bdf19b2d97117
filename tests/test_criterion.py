import json
import random
from collections import Counter
from itertools import product

import pytest

from cohiggs import (
    CartanType,
    HNType,
    ReductiveGroup,
    RootViolation,
    adjoint_multiplicities,
    admits_stable_cohiggs,
    build_root_system,
    evaluate_criterion,
    parse_group,
    semistable_obstruction,
)
from cohiggs.cli import main
from cohiggs.criterion import adjoint_splitting
from reference import SWEEP_TYPES, flat_adjoint_degrees, hom_vanishing_certificate

A1 = ReductiveGroup((CartanType("A", 1),))
A2 = ReductiveGroup((CartanType("A", 2),))
B2 = ReductiveGroup((CartanType("B", 2),))
C2 = ReductiveGroup((CartanType("C", 2),))

SMALL_TYPES = [
    CartanType("A", 1), CartanType("A", 2), CartanType("A", 3),
    CartanType("B", 2), CartanType("B", 3),
    CartanType("C", 2), CartanType("C", 3),
    CartanType("D", 3), CartanType("G", 2),
]


def test_threshold_sits_between_two_and_three():
    assert admits_stable_cohiggs(A1, HNType(((2,),)))
    assert not admits_stable_cohiggs(A1, HNType(((3,),)))


def test_zero_type_always_admits_stable():
    for ct in SMALL_TYPES:
        g = ReductiveGroup((ct,), central_rank=1)
        assert admits_stable_cohiggs(g, HNType(((0,) * ct.rank,), (7,)))


def test_componentwise_examples():
    assert admits_stable_cohiggs(A2, HNType(((2, 2),)))
    assert not admits_stable_cohiggs(C2, HNType(((0, 4),)))


def test_central_degrees_do_not_matter():
    g = ReductiveGroup((CartanType("A", 2),), central_rank=2)
    for central in [(0, 0), (9, -9), (-100, 3)]:
        assert admits_stable_cohiggs(g, HNType(((1, 2),), central))


def test_non_dominant_rejected():
    with pytest.raises(ValueError):
        admits_stable_cohiggs(A2, HNType(((-1, 2),)))
    with pytest.raises(ValueError):
        semistable_obstruction(A2, HNType(((0, -1),)))
    with pytest.raises(ValueError):
        adjoint_splitting(A2, HNType(((0, -1),)))


def test_obstruction_examples():
    violations = semistable_obstruction(A2, HNType(((1, 5),)))
    assert [(v.factor, v.root, v.value) for v in violations] == [(0, 1, 5)]
    assert semistable_obstruction(A2, HNType(((0, 0),))) == []
    assert len(semistable_obstruction(B2, HNType(((3, 3),)))) == 2


def test_dichotomy_exhaustive():
    for ct in SMALL_TYPES:
        g = ReductiveGroup((ct,))
        for values in product(range(5), repeat=ct.rank):
            hn = HNType((values,))
            assert admits_stable_cohiggs(g, hn) == (not semistable_obstruction(g, hn))


def test_monotonicity_of_stability():
    rng = random.Random(11)
    for ct in SMALL_TYPES:
        g = ReductiveGroup((ct,))
        for _ in range(50):
            a = tuple(rng.randrange(0, 4) for _ in range(ct.rank))
            smaller = tuple(rng.randrange(0, v + 1) for v in a)
            if admits_stable_cohiggs(g, HNType((a,))):
                assert admits_stable_cohiggs(g, HNType((smaller,)))


def test_certificate_rank_one():
    assert hom_vanishing_certificate(A1, HNType(((3,),)), 0, 0) == [((-1,), -3)]


def test_certificate_a2():
    summands = hom_vanishing_certificate(A2, HNType(((3, 0),)), 0, 0)
    assert sorted(summands) == [((-1, -1), -3), ((-1, 0), -3)]


def test_certificate_c2():
    summands = hom_vanishing_certificate(C2, HNType(((0, 3),)), 0, 1)
    assert len(summands) == 3
    assert all(deg <= -3 for _, deg in summands)


def test_certificate_on_second_factor():
    g = ReductiveGroup((CartanType("A", 2), CartanType("A", 1)))
    hn = HNType(((0, 0), (4,)))
    assert hom_vanishing_certificate(g, hn, 1, 0) == [((-1,), -4)]
    with pytest.raises(ValueError):
        hom_vanishing_certificate(g, hn, 0, 0)  # value 0 in the first factor


def test_certificate_counts_parabolic_complement():
    # summands are the negative roots using the chosen simple root, so the
    # two counts per system must add up to the positive-root total
    for ct in SMALL_TYPES:
        g = ReductiveGroup((ct,))
        n_pos = (ct.dim - ct.rank) // 2
        for i in range(ct.rank):
            values = tuple(3 if j == i else 0 for j in range(ct.rank))
            summands = hom_vanishing_certificate(g, HNType((values,)), 0, i)
            unused = sum(1 for r in build_root_system(g.simple_factors[0]) if r[i] == 0)
            assert len(summands) == n_pos - unused


def test_certificate_precondition():
    with pytest.raises(ValueError):
        hom_vanishing_certificate(A1, HNType(((2,),)), 0, 0)
    with pytest.raises(ValueError):
        hom_vanishing_certificate(A2, HNType(((3, -1),)), 0, 0)
    with pytest.raises(ValueError):
        hom_vanishing_certificate(A2, HNType(((3, 0),)), 0, 5)
    with pytest.raises(ValueError):
        hom_vanishing_certificate(A2, HNType(((3, 0),)), 1, 0)
    with pytest.raises(ValueError, match="no simple root"):
        hom_vanishing_certificate(A2, HNType(((3, 0),)), 0, 2)


def test_adjoint_splitting_examples():
    assert adjoint_splitting(A1, HNType(((2,),))).degrees == (2, 0, -2)
    assert adjoint_splitting(A2, HNType(((1, 1),))).degrees == (
        2, 1, 1, 0, 0, -1, -1, -2,
    )


def test_adjoint_splitting_zero_type():
    for ct in SMALL_TYPES:
        g = ReductiveGroup((ct,), central_rank=1)
        st = adjoint_splitting(g, HNType(((0,) * ct.rank,), (3,)))
        assert st.degrees == (0,) * g.dim


def test_adjoint_splitting_shape():
    rng = random.Random(5)
    for ct in SMALL_TYPES:
        g = ReductiveGroup((ct,))
        for _ in range(10):
            hn = HNType((tuple(rng.randrange(0, 5) for _ in range(ct.rank)),))
            st = adjoint_splitting(g, hn)
            assert len(st.degrees) == g.dim
            assert st.degree == 0


def test_stable_types_have_adjoint_gaps_at_most_two():
    for ct in SMALL_TYPES:
        g = ReductiveGroup((ct,))
        for values in product(range(3), repeat=ct.rank):
            st = adjoint_splitting(g, HNType((values,)))
            assert all(gap <= 2 for gap in st.gaps()), (ct, values)


def test_report_consistency_and_json(capsys):
    report = evaluate_criterion(A2, HNType(((1, 5),)))
    assert not report.admits_stable
    assert report.violating_roots == (RootViolation(0, 1, 5),)
    assert report.adjoint_degrees == adjoint_splitting(A2, HNType(((1, 5),)))
    assert report.adjoint_multiplicities == adjoint_multiplicities(A2, HNType(((1, 5),)))
    # the CLI writes the report's JSON document, degrees expanded
    assert main(["criterion", "--group=A2", "--hn=1,5", "--format=json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"admits_stable", "obstruction", "adjoint_degrees"}
    assert payload["obstruction"] == [{"factor": 0, "root": 1, "value": 5}]
    assert payload["adjoint_degrees"] == list(report.adjoint_degrees.degrees)

    ok = evaluate_criterion(A2, HNType(((1, 1),)))
    assert ok.admits_stable
    assert ok.violating_roots == ()


def assert_table_matches_flat_list(group, hn):
    degrees, counts = adjoint_multiplicities(group, hn)
    assert len(degrees) == len(counts)
    assert dict(zip(degrees, counts)) == Counter(flat_adjoint_degrees(group, hn)), (str(group), hn)
    assert all(a > b for a, b in zip(degrees, degrees[1:]))
    assert all(c > 0 for c in counts)
    assert sum(counts) == group.dim
    assert degrees == tuple(-d for d in reversed(degrees)) and counts == counts[::-1]


@pytest.mark.parametrize(
    "ct", SWEEP_TYPES + [CartanType("E", 6), CartanType("E", 7), CartanType("E", 8)], ids=str
)
def test_adjoint_table_matches_flat_list_on_sweep_groups(ct):
    # every value vector in 0..3 up to rank 4, seeded ones above; with a
    # central line, which adds one zero
    g = ReductiveGroup((ct,), central_rank=1)
    rng = random.Random(f"table-{ct}")
    vectors = (
        product(range(4), repeat=ct.rank) if ct.rank <= 4
        else (tuple(rng.randrange(4) for _ in range(ct.rank)) for _ in range(200))
    )
    for values in vectors:
        assert_table_matches_flat_list(g, HNType((values,), (2,)))


@pytest.mark.parametrize("family", "ABCD")
def test_adjoint_table_matches_flat_list_up_to_rank_300(family):
    rng = random.Random(f"table-{family}")
    low = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
    for rank in [*range(low, 13), 40, 100, 300]:
        g = ReductiveGroup((CartanType(family, rank),))
        for top in (2, 6):
            values = tuple(rng.randint(0, top) for _ in range(rank))
            assert_table_matches_flat_list(g, HNType((values,)))


def test_adjoint_table_matches_flat_list_across_factors():
    g = parse_group("C3xA2xD4xG2xB2xE6+z2")
    rng = random.Random(7)
    for _ in range(50):
        values = tuple(rng.randint(0, 4) for _ in range(g.semisimple_rank))
        assert_table_matches_flat_list(g, HNType.from_flat(g, values, (1, -1)))
    torus = ReductiveGroup((), central_rank=3)
    assert adjoint_multiplicities(torus, HNType((), (1, 2, 3))) == ((0,), (3,))
