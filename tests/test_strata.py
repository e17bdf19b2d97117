import tracemalloc
from collections import Counter, deque
from itertools import product

import pytest

import cohiggs.strata
from cohiggs import (
    CartanType,
    HNType,
    ReductiveGroup,
    build_root_system,
    parse_group,
)
from cohiggs.criterion import STABLE_BOUND
from cohiggs.strata import (
    MAX_STRATA_RANK,
    StratumRecord,
    _count_sums,
    dim_automorphisms,
    dim_cohiggs_space,
    dim_stratum,
    enumerate_strata,
    strata_rows,
)
from reference import SWEEP_TYPES, per_root_values

A1 = ReductiveGroup((CartanType("A", 1),))

@pytest.mark.parametrize("a,expected", [(0, 9), (2, 9), (4, 10)])
def test_field_space_dimension_rank_two(a, expected):
    # 3 per torus line plus sections of degree a+2 and -a+2
    assert dim_cohiggs_space(A1, HNType(((a,),))) == expected


@pytest.mark.parametrize("a,expected", [(0, 3), (2, 4)])
def test_automorphism_dimension_rank_two(a, expected):
    assert dim_automorphisms(A1, HNType(((a,),))) == expected


def test_automorphism_dimension_a2():
    g = ReductiveGroup((CartanType("A", 2),))
    assert dim_automorphisms(g, HNType(((1, 1),))) == 9


@pytest.mark.parametrize("a,expected", [(0, 6), (1, 6), (2, 5)])
def test_stratum_dimension_rank_two(a, expected):
    assert dim_stratum(A1, HNType(((a,),))) == expected


def test_dimensions_beyond_the_stratum_range():
    # value 4 exercises the truncated section count and the closed forms
    hn = HNType(((4,),))
    assert dim_cohiggs_space(A1, hn) == 10
    assert dim_automorphisms(A1, hn) == 6
    assert dim_stratum(A1, hn) == 4


def test_single_type_dimensions_have_no_value_bound():
    # one type on its own is paired root by root, past the strata kernel's byte
    for g, values in [(A1, (1000,)), (ReductiveGroup((CartanType("E", 8),)), (9,) * 8)]:
        hn = HNType((values,))
        assert (
            dim_cohiggs_space(g, hn), dim_automorphisms(g, hn), dim_stratum(g, hn)
        ) == reference_dimensions(g, hn)


def test_zero_type_dimensions_scale_with_group_dimension():
    for ct in SWEEP_TYPES:
        g = ReductiveGroup((ct,))
        zero = HNType(((0,) * ct.rank,))
        assert dim_cohiggs_space(g, zero) == 3 * g.dim
        assert dim_automorphisms(g, zero) == g.dim
        assert dim_stratum(g, zero) == 2 * g.dim


def test_automorphism_forms_agree_on_big_sweep():
    # the paper's closed forms, one pass over the per-root values, against
    # the sums from counts; values up to 5 pass every breakpoint
    for ct in SWEEP_TYPES:
        g = ReductiveGroup((ct,))
        for values in product(range(6), repeat=ct.rank):
            hn = HNType((values,))
            signed = per_root_values(g, hn)
            aut_closed = g.dim + sum(v - 1 for v in signed if v > 1)
            stratum_closed = 2 * g.dim - sum(min(v - 1, 2) for v in signed if v > 1)
            assert dim_automorphisms(g, hn) == aut_closed, (ct, values)
            assert dim_stratum(g, hn) == stratum_closed, (ct, values)


def reference_dimensions(g, hn):
    """Slow reference: one pass over the per-root values per sum, five in all."""
    fields = 3 * g.rank + sum(max(0, v + 3) for v in per_root_values(g, hn))
    aut = g.rank + sum(v + 1 for v in per_root_values(g, hn) if v > -1)
    aut_closed = g.dim + sum(v - 1 for v in per_root_values(g, hn) if v > 1)
    stratum_closed = (
        2 * g.dim
        - 2 * sum(1 for v in per_root_values(g, hn) if v > 3)
        - sum(v - 1 for v in per_root_values(g, hn) if 1 < v <= 3)
    )
    assert aut == aut_closed
    assert fields - aut == stratum_closed
    return fields, aut, fields - aut


@pytest.mark.parametrize("g", [ReductiveGroup((ct,)) for ct in SWEEP_TYPES] + [
    ReductiveGroup((CartanType("A", 1), CartanType("A", 1)), central_rank=1),
], ids=str)
def test_dimensions_match_per_root_reference(g):
    # values 3 and 4 reach the max(0, v + 3) cutoff and the v > 3 branch
    central = (1,) * g.central_rank
    for values in product(range(5), repeat=g.semisimple_rank):
        hn = HNType.from_flat(g, values, central)
        assert (
            dim_cohiggs_space(g, hn), dim_automorphisms(g, hn), dim_stratum(g, hn)
        ) == reference_dimensions(g, hn), (str(g), values)


def reference_histogram(ct, values):
    """Slow reference: the positive-root values from one dot product each."""
    signed = per_root_values(ReductiveGroup((ct,)), HNType((values,)))
    return Counter(signed[::2])  # each positive root comes before its negative


def reference_counts(positive):
    """The five counts ``_count_sums`` takes, from a positive-root histogram."""
    n, s = sum(positive.values()), sum(v * k for v, k in positive.items())
    return n, s, positive[0], positive[1], positive[2]


def reference_root_sums(positive):
    """Slow reference for ``_count_sums``: the two root sums, value by value.

    ``positive`` counts the values of positive roots; each, of value
    ``v >= 0``, is counted together with its negative, of value ``-v``.
    """
    fields = aut = 0
    for v, n in positive.items():
        fields += n * ((v + 3) + max(0, -v + 3))
        aut += n * ((v + 1) + (v == 0))
    return fields, aut


@pytest.mark.parametrize(
    "ct", SWEEP_TYPES + [CartanType("E", 6), CartanType("E", 7)], ids=str
)
def test_root_value_histogram_matches_reference_exhaustively(ct, monkeypatch):
    # the packed pass of the factor tables, run over the values 0..3, agrees
    # with pairing one root at a time; values 3 and, past rank 1, above 3
    # occur, so the sums from counts are checked past every breakpoint
    monkeypatch.setattr(cohiggs.strata, "STABLE_BOUND", 3)
    packed = list(cohiggs.strata._packed_counts(ct))
    vectors = list(product(range(4), repeat=ct.rank))
    assert len(packed) == len(vectors)
    top = 0
    for values, counts in zip(vectors, packed):
        histogram = reference_histogram(ct, values)
        assert counts == reference_counts(histogram), values
        assert _count_sums(*counts) == reference_root_sums(histogram), values
        top = max(top, *histogram)
    assert top > 3 or top == 3 == 3 * ct.rank


def test_row_bound_comes_before_any_table(monkeypatch):
    # 3^12 strata are listed; one more simple root is refused unbuilt
    def table(ct):
        assert ct.rank <= MAX_STRATA_RANK, "table built for a refused request"
        return (0,), (0,)

    monkeypatch.setattr(cohiggs.strata, "_factor_table", table)
    for name in ("A12", "C6xD6", "E8xA2xA1xA1"):
        strata_rows(parse_group(name))
    for name in ("A13", "C7xD6+z1", "E8xA3xA2", "A127"):
        g = parse_group(name)
        with pytest.raises(ValueError, match=r"strata exceed the limit of 3\^12"):
            strata_rows(g, (0,) * g.central_rank)


def test_enumerate_strata_one_root_value_pass_per_record(monkeypatch):
    # each record reads one cached table entry per factor: one table per
    # simple type, built from one root system, shared by every factor of
    # that type and every later request
    seen = []

    def counting(ct):
        seen.append(ct)
        return build_root_system(ct)

    monkeypatch.setattr(cohiggs.strata, "build_root_system", counting)
    table = cohiggs.strata._factor_table
    table.cache_clear()
    a1, a2 = CartanType("A", 1), CartanType("A", 2)
    g = ReductiveGroup((a1, a1, a2))
    assert len(enumerate_strata(g)) == 81
    assert table.cache_info().misses == 2
    assert seen == [a1, a2]
    enumerate_strata(g)
    enumerate_strata(ReductiveGroup((a2,)), ())
    assert table.cache_info().misses == 2
    assert seen == [a1, a2]


@pytest.mark.parametrize(
    "ct",
    SWEEP_TYPES + [CartanType("E", 6), CartanType("E", 7), CartanType("E", 8)],
    ids=str,
)
def test_factor_table_matches_checked_kernel(ct):
    # the packed pass agrees with pairing one root at a time, and so do the
    # sums from the five counts of each vector
    expected = []
    for values in product(range(STABLE_BOUND + 1), repeat=ct.rank):
        histogram = reference_histogram(ct, values)
        expected.append(reference_root_sums(histogram))
        assert _count_sums(*reference_counts(histogram)) == expected[-1], values
    fields, aut = cohiggs.strata._factor_table(ct)
    assert type(fields) is type(aut) is tuple
    assert list(zip(fields, aut)) == expected


@pytest.mark.parametrize("name,start", [
    ("+z1", 0), ("A12", 0), ("A2xB2", 0), ("E8", 0), ("E8xA1", 1), ("A1xE8", 1),
    ("E8xA4", 1), ("A4xE8", 1), ("A4xA4xA4", 1), ("A2xA7xA1", 1), ("A1xA11", 1),
    ("x".join(["A1"] * 8), 0), ("x".join(["A1"] * 9), 1), ("x".join(["A1"] * 12), 4),
])
def test_inner_block_holds_the_last_factor_and_at_most_3_8_rows(name, start):
    # the inner block starts at the returned factor: it always holds the
    # last one, and the ones before it while it stays within 3^8 rows
    ranks = [ct.rank for ct in parse_group(name).simple_factors]
    assert cohiggs.strata._inner_start(ranks) == start


def reference_rows(g, central):
    """Slow reference for ``strata_rows``: each row from one entry of every
    factor's table, added up per row over the product of the tables."""
    pairs = [list(zip(*cohiggs.strata._factor_table(ct))) for ct in g.simple_factors]
    flats = product(range(STABLE_BOUND + 1), repeat=g.semisimple_rank)
    for flat, sums in zip(flats, product(*pairs)):
        fields = 3 * g.rank + sum(f for f, _ in sums)
        aut = g.rank + sum(a for _, a in sums)
        yield flat, fields, aut, fields - aut, not any(flat)


# the inner block is one factor (A1xE8, E8xA1, A10), several up to 3^8 rows
# with (A1^9, A4xA4xA1, A2xA7xA1) or without (A1^k, G2xA2+z1) outer
# factors, or empty (+z2)
@pytest.mark.parametrize("name,central", [
    *(("x".join(["A1"] * k), ()) for k in range(1, 10)),
    ("A1xE8", ()), ("E8xA1", ()), ("A10", ()), ("A4xA4xA1", ()), ("A2xA7xA1", ()),
    ("G2xA2+z1", (4,)), ("+z2", (1, -1)), ("C3xA1+z2", (1, -2)),
])
def test_strata_rows_match_the_product_of_factor_tables(name, central):
    g = parse_group(name)
    assert list(strata_rows(g, central)) == list(reference_rows(g, central))


@pytest.mark.parametrize("name", ["x".join(["A1"] * 10), "A10", "A1xA9", "E8xA2"])
def test_strata_rows_stream_without_a_list_per_row(name):
    # with the factor tables cached, consuming every row holds at most two
    # inner blocks of 3^8 entries, far below one pointer per row (a list of
    # 3^10 rows holds 472 KB of pointers alone)
    g = parse_group(name)
    deque(strata_rows(g), maxlen=0)  # builds and caches the tables
    tracemalloc.start()
    try:
        deque(strata_rows(g), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * 3**8 + 64_000 < 8 * 3**g.semisimple_rank // 2, peak


def test_highest_root_height_from_coxeter_number():
    # the highest root comes last and has height h - 1, with h the Coxeter
    # number: the number of roots over the rank (Bourbaki, ch. VI, 1.11,
    # prop. 31)
    types = [CartanType(f, n) for f, lo in zip("ABCD", (1, 2, 2, 3)) for n in range(lo, 21)]
    types += [CartanType(f, n) for f, n in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))]
    for ct in types:
        h = (ct.dim - ct.rank) // ct.rank
        assert sum(build_root_system(ct)[-1]) == h - 1, str(ct)


@pytest.mark.parametrize("g,central", [
    (ReductiveGroup((CartanType("A", 1), CartanType("A", 1)), central_rank=1), (3,)),
    (ReductiveGroup((CartanType("G", 2), CartanType("A", 2)), central_rank=2), (1, -2)),
    (ReductiveGroup((CartanType("B", 2), CartanType("A", 1), CartanType("C", 2)),
                    central_rank=1), (-4,)),
], ids=str)
def test_enumerate_strata_is_the_row_stream(g, central):
    rebuilt = [
        StratumRecord(HNType.from_flat(g, flat, central), vm, aut, dim, generic)
        for flat, vm, aut, dim, generic in strata_rows(g, central)
    ]
    assert enumerate_strata(g, central) == rebuilt
    assert len(rebuilt) == 3 ** g.semisimple_rank


def test_non_dominant_rejected():
    with pytest.raises(ValueError):
        dim_cohiggs_space(A1, HNType(((-1,),)))
    with pytest.raises(ValueError):
        dim_automorphisms(A1, HNType(((-2,),)))
    with pytest.raises(ValueError):
        dim_stratum(A1, HNType(((-2,),)))


def test_enumerate_strata_rank_one():
    records = enumerate_strata(A1)
    assert [r.hn.flat_values for r in records] == [(0,), (1,), (2,)]
    assert [r.dim_stratum for r in records] == [6, 6, 5]
    assert [r.is_generic for r in records] == [True, False, False]


def test_enumerate_strata_product_group():
    g = ReductiveGroup((CartanType("A", 1), CartanType("A", 1)))
    records = enumerate_strata(g)
    assert len(records) == 9
    assert len({r.hn for r in records}) == 9
    generic = [r for r in records if r.is_generic]
    assert len(generic) == 1
    assert generic[0].dim_stratum == 2 * g.dim


def test_enumerate_strata_pure_torus():
    torus = ReductiveGroup((), central_rank=1)
    records = enumerate_strata(torus, (3,))
    assert len(records) == 1
    assert records[0].dim_stratum == 2 == 2 * torus.dim
    assert records[0].is_generic


def test_enumerate_strata_checks_central_length():
    with pytest.raises(ValueError):
        enumerate_strata(A1, (1,))
    with pytest.raises(ValueError):
        enumerate_strata(ReductiveGroup((), central_rank=2), (1,))


def test_strata_dimensions_consistent():
    for ct in SWEEP_TYPES:
        g = ReductiveGroup((ct,))
        for record in enumerate_strata(g):
            assert record.dim_stratum == record.dim_cohiggs - record.dim_aut
            assert record.dim_stratum <= 2 * g.dim
            assert (
                record.dim_cohiggs, record.dim_aut, record.dim_stratum
            ) == reference_dimensions(g, record.hn)


def test_stratum_deficit_vanishes_iff_no_root_value_exceeds_one():
    for ct in SWEEP_TYPES:
        g = ReductiveGroup((ct,))
        for record in enumerate_strata(g):
            deficit = 2 * g.dim - record.dim_stratum
            big = max(per_root_values(g, record.hn), default=0)
            assert (deficit == 0) == (big <= 1), (ct, record.hn)


def test_central_part_carried_through():
    g = ReductiveGroup((CartanType("A", 1),), central_rank=2)
    records = enumerate_strata(g, (4, -1))
    assert len(records) == 3
    assert all(r.hn.central_degrees == (4, -1) for r in records)
