import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import cohiggs.lie
from cohiggs import (
    CartanType,
    HNType,
    HomogPoly,
    PrimeField,
    ReductiveGroup,
    SplittingType,
    SymplecticSplitting,
    all_root_values,
    build_root_system,
    cartan_matrix,
    is_dominant,
    parse_group,
)
from reference import deadline, per_root_values

ALL_TYPES = [
    ("A", 1, 3), ("A", 2, 8), ("A", 3, 15), ("A", 4, 24), ("A", 5, 35),
    ("B", 2, 10), ("B", 3, 21), ("B", 4, 36),
    ("C", 2, 10), ("C", 3, 21), ("C", 4, 36),
    ("D", 3, 15), ("D", 4, 28),
    ("E", 6, 78), ("E", 7, 133), ("E", 8, 248),
    ("F", 4, 52), ("G", 2, 14),
]


@pytest.mark.parametrize("family,rank", [
    ("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("F", 5), ("G", 3),
])
def test_invalid_ranks_rejected(family, rank):
    with pytest.raises(ValueError):
        CartanType(family, rank)


def test_unknown_family_rejected():
    # "" and "AB" are substrings of "ABCDEFG" but no family
    for family in ("H", "", "AB"):
        with pytest.raises(ValueError):
            CartanType(family, 3)


# every integer field of the data types, fed a non-integer x
_INTEGER_FIELDS = {
    "SplittingType": lambda x: SplittingType((x, 0)),
    "SymplecticSplitting": lambda x: SymplecticSplitting((x,)),
    "HNType.simple_values": lambda x: HNType(((x, 0),)),
    "HNType.central_degrees": lambda x: HNType((), (x,)),
    "CartanType.rank": lambda x: CartanType("A", x),
    "ReductiveGroup.central_rank": lambda x: ReductiveGroup((), x),
    "PrimeField.p": PrimeField,
    "HomogPoly.degree": lambda x: HomogPoly(PrimeField(5), x, (0,) * 3),
}


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), 2.0], ids=str)
@pytest.mark.parametrize("field", list(_INTEGER_FIELDS))
def test_non_integers_rejected_not_truncated(field, value):
    # the rule of HomogPoly coefficients: operator.index or TypeError
    with pytest.raises(TypeError):
        _INTEGER_FIELDS[field](value)


@pytest.mark.parametrize("family,rank,dim", ALL_TYPES)
def test_root_counts_match_dimensions(family, rank, dim):
    ct = CartanType(family, rank)
    assert ct.dim == dim
    assert len(build_root_system(ct)) == (dim - rank) // 2


@pytest.mark.parametrize("family,rank,dim", ALL_TYPES)
def test_positive_roots_nonnegative_and_height_sorted(family, rank, dim):
    roots = build_root_system(CartanType(family, rank))
    heights = [sum(r) for r in roots]
    assert heights == sorted(heights)
    assert all(all(c >= 0 for c in r) for r in roots)
    # the height-1 roots are exactly the simple roots
    simple = [r for r in roots if sum(r) == 1]
    assert sorted(simple) == sorted(
        tuple(int(i == j) for j in range(rank)) for i in range(rank)
    )
    assert len(set(roots)) == len(roots)


@pytest.mark.parametrize("family,rank,dim", ALL_TYPES)
def test_closure_under_simple_reflections(family, rank, dim):
    ct = CartanType(family, rank)
    a = cartan_matrix(ct)
    positive = build_root_system(ct)
    roots = set(positive) | {tuple(-c for c in r) for r in positive}
    assert len(roots) == dim - rank
    for root in roots:
        for i in range(rank):
            # s_i c = c - (A[i] . c) e_i
            k = sum(x * c for x, c in zip(a[i], root))
            assert root[:i] + (root[i] - k,) + root[i + 1 :] in roots


# sha256 over repr(build_root_system(ct)) in this order, recorded from the
# full +/- reflection closure: every type the criterion benchmark builds, and
# two large classical ones
PINNED_TYPES = (
    [("A", n) for n in range(1, 25)]
    + [("B", n) for n in range(2, 25)]
    + [("C", n) for n in range(2, 25)]
    + [("D", n) for n in range(3, 25)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2), ("A", 100), ("D", 60)]
)


def test_root_tuples_byte_identical():
    h = hashlib.sha256()
    for family, rank in PINNED_TYPES:
        h.update(repr(build_root_system(CartanType(family, rank))).encode())
    assert h.hexdigest() == (
        "3a6a348cb64ef32a55416aecd75b21c5727860c6bdf0ec8ed8f7379b7c96103c"
    )


def reference_root_system(ct):
    """The positive roots from the Weyl orbit of the simple roots.

    Every root is conjugate to a simple root (Humphreys, 10.3), so closing
    the simple roots under every simple reflection ``c -> c - (A[i] . c) e_i``
    gives the roots of both signs; the positive ones have no negative
    coefficient.  Unlike the raising closure, this one lowers too.
    """
    n = ct.rank
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in cartan_matrix(ct)]
    frontier = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    orbit = set(frontier)
    while frontier:
        c = frontier.pop()
        for i, row in enumerate(rows):
            k = sum(x * c[j] for j, x in row)
            if k:  # s_i fixes c when k == 0
                reflected = c[:i] + (c[i] - k,) + c[i + 1 :]
                if reflected not in orbit:
                    orbit.add(reflected)
                    frontier.append(reflected)
    assert len(orbit) == ct.dim - n
    return tuple(sorted((r for r in orbit if min(r) >= 0), key=lambda r: (sum(r), r)))


LARGE_CLASSICAL = [(family, n) for family in "ABCD" for n in range(25, 41)]


@pytest.mark.parametrize("family,rank", [t[:2] for t in ALL_TYPES] + LARGE_CLASSICAL)
def test_root_system_matches_tuple_closure(family, rank):
    ct = CartanType(family, rank)
    assert build_root_system(ct) == reference_root_system(ct)


def test_wrong_cartan_matrix_fails_the_count_check(monkeypatch):
    # a hyperbolic matrix has infinitely many real roots: the closure stops
    # one root past the expected count and reaches the check, which a
    # closure stopping at the count would pass with wrong roots
    monkeypatch.setattr(cohiggs.lie, "cartan_matrix", lambda ct: ((2, -3), (-3, 2)))
    with deadline(5), pytest.raises(AssertionError, match="4 positive roots, expected 3"):
        build_root_system.__wrapped__(CartanType("A", 2))


def test_a1_and_a2_positive_roots():
    assert build_root_system(CartanType("A", 1)) == ((1,),)
    assert set(build_root_system(CartanType("A", 2))) == {(1, 0), (0, 1), (1, 1)}


def test_g2_has_six_positive_roots_with_highest_3_2():
    g2 = build_root_system(CartanType("G", 2))
    assert len(g2) == 6
    assert g2[-1] == (3, 2)


def test_all_root_values_examples():
    a1 = ReductiveGroup((CartanType("A", 1),))
    assert sorted(all_root_values(a1, HNType(((2,),)))) == [-2, 2]
    a2 = ReductiveGroup((CartanType("A", 2),))
    assert sorted(all_root_values(a2, HNType(((1, 0),)))) == [-1, -1, 0, 0, 1, 1]


def test_all_root_values_zero_cocharacter():
    for family, rank, dim in ALL_TYPES[:10]:
        g = ReductiveGroup((CartanType(family, rank),), central_rank=1)
        m = HNType(((0,) * rank,), (5,))
        vals = all_root_values(g, m)
        assert vals == [0] * (g.dim - g.rank)


def test_all_root_values_negation_symmetric_and_sum_zero():
    rng = random.Random(3)
    for family, rank, _ in ALL_TYPES:
        g = ReductiveGroup((CartanType(family, rank),))
        for _ in range(5):
            m = HNType((tuple(rng.randrange(0, 6) for _ in range(rank)),))
            vals = all_root_values(g, m)
            assert sorted(vals) == sorted(-v for v in vals)
            assert sum(vals) == 0


def test_all_root_values_shape_mismatch():
    g = ReductiveGroup((CartanType("A", 2),))
    with pytest.raises(ValueError):
        all_root_values(g, HNType(((1,),)))
    with pytest.raises(ValueError):
        all_root_values(g, HNType(((1, 1),), (0,)))
    with pytest.raises(ValueError):
        all_root_values(g, HNType(((1, 1), (0,))))


def assert_matches_per_root_pairing(g, hn):
    # factor by factor, the same multiset of positive-root values as one dot
    # product per root, each value followed by its negative
    got, ref = all_root_values(g, hn), per_root_values(g, hn)
    assert len(got) == len(ref) == g.dim - g.rank
    assert got[1::2] == [-v for v in got[::2]]
    start = 0
    for ct in g.simple_factors:
        end = start + ct.dim - ct.rank
        assert Counter(got[start:end:2]) == Counter(ref[start:end:2]), (str(ct), hn)
        start = end


SMALL_CLASSICAL = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4),
]


@pytest.mark.parametrize("family,rank", SMALL_CLASSICAL)
def test_classical_root_values_match_per_root_pairing_exhaustively(family, rank):
    # every vector with entries in -3..3, dominant or not
    g = ReductiveGroup((CartanType(family, rank),))
    for values in product(range(-3, 4), repeat=rank):
        assert_matches_per_root_pairing(g, HNType((values,)))


@pytest.mark.parametrize("family", "ABCD")
def test_classical_root_values_match_per_root_pairing_up_to_rank_40(family):
    rng = random.Random(f"classical-{family}")
    for rank in range({"A": 1, "B": 2, "C": 2, "D": 3}[family], 41):
        g = ReductiveGroup((CartanType(family, rank),))
        for _ in range(3):
            values = tuple(rng.randint(-1000, 1000) for _ in range(rank))
            assert_matches_per_root_pairing(g, HNType((values,)))


def test_root_values_match_per_root_pairing_across_factors():
    g = parse_group("C3xA2xD4xG2xB2xE6+z1")
    rng = random.Random(5)
    for _ in range(20):
        values = tuple(rng.randint(-9, 9) for _ in range(g.semisimple_rank))
        assert_matches_per_root_pairing(g, HNType.from_flat(g, values, (7,)))


def test_is_dominant():
    a2 = ReductiveGroup((CartanType("A", 2),))
    assert is_dominant(a2, HNType(((0, 3),)))
    assert not is_dominant(a2, HNType(((-1, 2),)))
    c2 = ReductiveGroup((CartanType("C", 2),))
    assert is_dominant(c2, HNType(((2, 2),)))


def test_group_rank_and_dim_combine_factors_and_center():
    g = ReductiveGroup((CartanType("C", 3), CartanType("A", 1)), central_rank=2)
    assert g.rank == 3 + 1 + 2
    assert g.dim == 21 + 3 + 2
    assert g.semisimple_rank == 4
    torus = ReductiveGroup((), central_rank=2)
    assert torus.rank == torus.dim == 2
    assert all_root_values(torus, HNType((), (1, -4))) == []


def test_multi_factor_root_values_concatenate():
    g = ReductiveGroup((CartanType("A", 1), CartanType("A", 1)))
    m = HNType(((1,), (2,)))
    assert sorted(all_root_values(g, m)) == [-2, -1, 1, 2]


@pytest.mark.parametrize("text,factors,central", [
    ("A2", ("A2",), 0),
    ("C3xA1+z2", ("C3", "A1"), 2),
    ("A1xA1", ("A1", "A1"), 0),
    ("E8+z1", ("E8",), 1),
    ("+z1", (), 1),
])
def test_parse_group(text, factors, central):
    g = parse_group(text)
    assert tuple(str(f) for f in g.simple_factors) == factors
    assert g.central_rank == central
    assert str(g) == text


@pytest.mark.parametrize("text", [
    "", "H2", "A", "A2+z", "A2x", "a2", "A2xz1", "A0", "z1", "+z0", "+z",
])
def test_parse_group_rejects(text):
    with pytest.raises(ValueError):
        parse_group(text)


@pytest.mark.parametrize("g", [
    ReductiveGroup((), 1),
    ReductiveGroup((), 3),
    ReductiveGroup((CartanType("A", 2),)),
    ReductiveGroup((CartanType("C", 3), CartanType("A", 1)), 2),
    ReductiveGroup((CartanType("G", 2), CartanType("E", 8))),
], ids=str)
def test_parse_group_round_trip(g):
    assert parse_group(str(g)) == g


def test_hntype_from_flat_splits_by_factor():
    g = parse_group("C3xA1+z2")
    m = HNType.from_flat(g, (1, 0, 2, 1), (4, -1))
    assert m.simple_values == ((1, 0, 2), (1,))
    assert m.central_degrees == (4, -1)
    assert m.flat_values == (1, 0, 2, 1)
    with pytest.raises(ValueError):
        HNType.from_flat(g, (1, 0, 2), (4, -1))
