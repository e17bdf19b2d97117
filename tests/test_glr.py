import itertools

import pytest

from cohiggs import (
    CartanType,
    SplittingType,
    adjoint_splitting,
    admits_stable_cohiggs,
    splitting_to_hn,
)
from cohiggs.strata import dim_cohiggs_space
from reference import (
    enumerate_splitting_types,
    glr_admits_semistable,
    hn_to_splitting,
    hom_degree,
    hom_space_dim,
)


def test_constructor_sorts_and_records_order():
    st = SplittingType((0, 3, 1))
    assert st.degrees == (3, 1, 0)
    assert st.rank == 3 and st.degree == 4


def test_constructor_rejects_empty():
    with pytest.raises(ValueError):
        SplittingType(())


def test_gap_criterion_examples():
    assert glr_admits_semistable(SplittingType((1, -1)))  # gap exactly 2
    assert not glr_admits_semistable(SplittingType((3, 0)))
    assert glr_admits_semistable(SplittingType((0, 0, 0)))


@pytest.mark.parametrize("degrees,gaps,total", [
    ((1, -1), (2,), 0),
    ((2, 1, 0), (1, 1), 3),
    ((3, 0, 0), (3, 0), 3),
])
def test_splitting_to_hn(degrees, gaps, total):
    group, hn = splitting_to_hn(SplittingType(degrees))
    assert str(group) == f"A{len(degrees) - 1}+z1"
    assert hn.simple_values == (gaps,)
    assert hn.central_degrees == (total,)


def test_splitting_to_hn_rank_one_is_pure_torus():
    group, hn = splitting_to_hn(SplittingType((5,)))
    assert group.simple_factors == ()
    assert group.central_rank == 1
    assert hn.central_degrees == (5,)


def test_hn_round_trip():
    for r in range(1, 5):
        for st in enumerate_splitting_types(r, -3, 3):
            assert hn_to_splitting(*splitting_to_hn(st)).degrees == st.degrees


def test_hom_degree_examples():
    st = SplittingType((1, -1))
    assert hom_degree(st, 1, 0) == 0
    assert hom_space_dim(st, 1, 0) == 1
    st = SplittingType((3, 0))
    assert hom_degree(st, 1, 0) == -1
    assert hom_space_dim(st, 1, 0) == 0
    assert hom_degree(st, 0, 0) == 2
    assert hom_space_dim(st, 1, 1) == 3


def test_hom_degree_bad_indices():
    # a negative index must not wrap round to the last summand, and an index
    # at the rank must be refused by the range check, not by the tuple
    for i, j in ((2, 0), (-1, 0), (0, -1), (0, 2)):
        with pytest.raises(IndexError, match="out of range for rank"):
            hom_degree(SplittingType((1, 0)), i, j)


def test_gap_criterion_matches_group_criterion_exhaustively():
    # ranks up to 6, degrees within [-6, 6]
    for r in range(1, 7):
        for st in enumerate_splitting_types(r, -6, 6):
            group, hn = splitting_to_hn(st)
            assert glr_admits_semistable(st) == admits_stable_cohiggs(group, hn), st


def test_entry_space_dimensions_sum_to_field_space_dimension():
    for r in range(1, 5):
        for st in enumerate_splitting_types(r, -3, 3):
            total = sum(
                hom_space_dim(st, i, j) for i in range(r) for j in range(r)
            )
            assert total == dim_cohiggs_space(*splitting_to_hn(st)), st


def test_adjoint_splitting_is_endomorphism_degree_multiset():
    for r in range(1, 5):
        for st in enumerate_splitting_types(r, -3, 3):
            group, hn = splitting_to_hn(st)
            expected = sorted(
                (mi - mj for mi in st.degrees for mj in st.degrees), reverse=True
            )
            assert list(adjoint_splitting(group, hn).degrees) == expected, st


def test_dual_reverses_and_negates():
    assert SplittingType((3, 1, -2)).dual().degrees == (2, -1, -3)
    assert SplittingType((3, 1, -2)).dual().dual().degrees == (3, 1, -2)


@pytest.mark.parametrize("rank", range(1, 6))
def test_splitting_type_enumeration_order(rank):
    # every weakly decreasing tuple of the box, in the order a filter over
    # the lexicographically decreasing product meets them
    for lo in range(-4, 5):
        for hi in range(-4, 5):
            box = range(hi, lo - 1, -1)
            want = [
                d
                for d in itertools.product(box, repeat=rank)
                if all(a >= b for a, b in zip(d, d[1:]))
            ]
            got = [st.degrees for st in enumerate_splitting_types(rank, lo, hi)]
            assert got == want, (rank, lo, hi)
