import random
from itertools import product

import pytest

from cohiggs import (
    CartanType,
    HNType,
    ReductiveGroup,
    admits_stable_cohiggs,
    adjoint_splitting,
    build_root_system,
    evaluate_criterion,
    semistable_obstruction,
)
from reference import hom_vanishing_certificate

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


def test_report_consistency_and_json():
    report = evaluate_criterion(A2, HNType(((1, 5),)))
    assert not report.admits_stable
    payload = report.to_json_dict()
    assert set(payload) == {"admits_stable", "obstruction", "adjoint_degrees"}
    assert payload["obstruction"] == [{"factor": 0, "root": 1, "value": 5}]
    assert payload["adjoint_degrees"] == sorted(payload["adjoint_degrees"], reverse=True)

    ok = evaluate_criterion(A2, HNType(((1, 1),)))
    assert ok.admits_stable
    assert ok.to_json_dict()["obstruction"] == []
