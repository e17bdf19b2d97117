from itertools import combinations_with_replacement

import pytest

from cohiggs import (
    SplittingType,
    SymplecticSplitting,
    admits_stable_cohiggs,
    sp_to_hn,
)
from reference import glr_admits_semistable, sp_admits_stable


def all_half_degree_lists(r, e_max):
    for combo in combinations_with_replacement(range(e_max, -1, -1), r):
        yield SymplecticSplitting(tuple(sorted(combo, reverse=True)))


def test_validation():
    with pytest.raises(ValueError):
        SymplecticSplitting((1, 2))
    with pytest.raises(ValueError):
        SymplecticSplitting((2, -1))
    with pytest.raises(ValueError):
        SymplecticSplitting(())
    assert SymplecticSplitting((2, 1)).full_degrees == (2, 1, -1, -2)


def test_criterion_examples():
    assert sp_admits_stable(SymplecticSplitting((2, 1)))       # gaps 1 and 2
    assert not sp_admits_stable(SymplecticSplitting((2, 2)))   # middle gap 4
    assert sp_admits_stable(SymplecticSplitting((0, 0, 0)))


def test_to_group_data():
    group, hn = sp_to_hn(SymplecticSplitting((2, 1)))
    assert str(group) == "C2"
    assert hn.simple_values == ((1, 2),)
    group, hn = sp_to_hn(SymplecticSplitting((1, 1)))
    assert hn.simple_values == ((0, 2),)
    group, hn = sp_to_hn(SymplecticSplitting((3,)))
    assert str(group) == "A1"
    assert hn.simple_values == ((6,),)


def test_criterion_matches_group_criterion_exhaustively():
    for r in range(1, 5):
        for ss in all_half_degree_lists(r, 5):
            assert sp_admits_stable(ss) == admits_stable_cohiggs(*sp_to_hn(ss)), ss


def test_full_degree_gaps_are_palindromic():
    for r in range(1, 5):
        for ss in all_half_degree_lists(r, 5):
            full = ss.full_degrees
            gaps = [full[i] - full[i + 1] for i in range(len(full) - 1)]
            assert gaps == gaps[::-1], ss


def test_stable_half_degrees_embed_into_the_rank_2r_criterion():
    for r in range(1, 5):
        for ss in all_half_degree_lists(r, 5):
            if sp_admits_stable(ss):
                assert glr_admits_semistable(SplittingType(ss.full_degrees)), ss


def test_full_degrees_sum_to_zero_and_decrease():
    for r in range(1, 5):
        for ss in all_half_degree_lists(r, 4):
            full = ss.full_degrees
            assert sum(full) == 0
            assert all(full[i] >= full[i + 1] for i in range(len(full) - 1))
