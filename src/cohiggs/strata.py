"""Stratification of the co-Higgs moduli by Harder-Narasimhan type.

The strata are the HN types whose simple-root values all lie in
{0, 1, 2}, the types the criterion allows: every value vector in
{0, 1, 2}^rank, one stratum each.  They are not the strata of one fixed
topological degree: the vectors span every class of P^v/Q^v (coweights
modulo coroots, the topological types), and a listing per class (an
opt-in ``--class``) is not built yet.  Each stratum is the space of
fields on the corresponding bundle modulo its automorphisms, so its
dimension is the field dimension less the automorphism dimension, both
sums of section counts over the root spaces.  A root pair of value
``v >= 0`` has ``v + 3`` field sections on the positive root and
``max(0, 3 - v)`` on the negative one: 6 up to value 3 and ``6 + (v - 3)``
past it (the tempting ``v + 3`` there overcounts by six per large root,
and the test suite pins the discrepancy).  So a factor's two sums depend
only on five counts: its positive roots, the sum of their values and how
many have value 0, 1 and 2 (``_count_sums``).  The root values of a type
are the disjoint union of those of its simple factors, so the sums of a
group add up per-factor sums.  Each factor's sums over the strata range
are two columns of ints, field sections and automorphisms, computed once
per simple type per process and cached like the root systems.
``dimension_columns`` turns them into the group's three dimension
columns, lazily: the trailing factors form an inner block of at most
3^8 rows (one factor's cached columns as they are, however long), each
entry of the remaining outer factors gives one base sum, and the block
is mapped onto each base at C speed, so nothing of 3^rank entries is
held.  ``strata_rows`` zips the columns with the value vectors, and the
CLI zips them with its value cells into one ``%`` per row.  A single
type asked for on its own counts the values of ``all_root_values``.  The
paper's formulas for the automorphism and stratum dimensions are checked
against per-root sums in ``tests/test_strata.py`` (``reference_dimensions``
and ``test_automorphism_forms_agree_on_big_sweep``) and by acceptance
criterion 05.  The generic stratum has twice the group dimension.  The
``generic`` column marks the zero type, the all-zero value vector: the
top-dimension row of the class of 0 alone, not of the other classes.
"""

import functools
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, product, repeat, starmap
from operator import attrgetter, sub

from .criterion import STABLE_BOUND
from .frozen import Frozen
from .lie import (
    CartanType,
    HNType,
    ReductiveGroup,
    all_root_values,
    build_root_system,
    require_dominant,
)


class StratumRecord(Frozen):
    """One stratum: its HN type, three dimensions and whether it is the
    zero type (``is_generic``).

    Not exported: it stays in ``src`` only for ``enumerate_strata``, until
    ROADMAP item 9 moves both out.
    """

    __slots__ = ("hn", "dim_cohiggs", "dim_aut", "dim_stratum", "is_generic")


# dimension_columns refuses a group with more strata than this, before any work
MAX_STRATA_RANK = 12


def _count_sums(n: int, s: int, n0: int, n1: int, n2: int) -> tuple[int, int]:
    """The root terms of the field and automorphism sums, from five counts.

    Field sections and automorphisms, over ``n`` positive roots with values
    summing to ``s``, of which ``n0`` .. ``n2`` have value 0 .. 2.  Each
    positive root, of value ``v >= 0``, is counted together with its
    negative, of value ``-v``: the pair has ``(v + 3) + max(0, 3 - v)``
    field sections and ``v + 1`` automorphisms plus one more at value 0.
    """
    return 3 * n + s + 3 * n0 + 2 * n1 + n2, n + s + n0


def _dimensions(group: ReductiveGroup, hn: HNType) -> tuple[int, int, int]:
    """Field-space, automorphism and stratum dimensions of any dominant
    type, in that order, from the values of ``all_root_values``: the root
    sums plus three field sections and one automorphism per torus
    direction, and the stratum their difference."""
    require_dominant(group, hn)
    # each positive root comes before its negative
    positive = all_root_values(group, hn)[::2]
    f, a = _count_sums(len(positive), sum(positive), *map(positive.count, range(3)))
    fields, aut = 3 * group.rank + f, group.rank + a
    return fields, aut, fields - aut


def dim_cohiggs_space(group: ReductiveGroup, hn: HNType) -> int:
    """Dimension of the space of co-Higgs fields on a bundle of this type.

    Three sections per torus direction plus, for each root, the sections of
    a line bundle of degree ``value + 2``: that is ``value + 3`` when the
    value is at least -3 and zero otherwise.

    Not exported: it stays in ``src`` only for the benchmark's span tracer,
    until ROADMAP item 9 moves it out.
    """
    return _dimensions(group, hn)[0]


def dim_automorphisms(group: ReductiveGroup, hn: HNType) -> int:
    """Dimension of the automorphism group of the bundle.

    One per torus direction plus ``value + 1`` for each root with
    nonnegative value.  ``reference_dimensions`` in the tests and acceptance
    criterion 05 check the equivalent form dim(G) + sum of (value - 1) over
    roots with value > 1 against it.

    Not exported: it stays in ``src`` only for the benchmark's span tracer,
    until ROADMAP item 9 moves it out.
    """
    return _dimensions(group, hn)[1]


def dim_stratum(group: ReductiveGroup, hn: HNType) -> int:
    """Stratum dimension: fields minus automorphisms.

    The automorphisms act freely on a generic field, so dimensions
    subtract.  ``reference_dimensions`` in the tests and acceptance
    criterion 05 check the form 2 dim(G) - 2 #{value > 3} - sum of
    (value - 1) over 1 < value <= 3 against the subtraction.

    Not exported: it stays in ``src`` only for the benchmark's span tracer,
    until ROADMAP item 9 moves it out.
    """
    return _dimensions(group, hn)[2]


def _packed_sums(columns: list[int], weights: list[int]) -> list[tuple[int, int]]:
    """``(sum(v_i * column_i), sum(v_i * weight_i))`` of every value vector
    of ``product(range(STABLE_BOUND + 1), repeat=len(columns))``, in that
    order, built one coordinate at a time."""
    rows = [(0, 0)]
    for col, w in zip(columns, weights):
        rows = [(x + v * col, s + v * w) for x, s in rows for v in range(STABLE_BOUND + 1)]
    return rows


def _packed_counts(ct: CartanType) -> Iterator[tuple[int, int, int, int, int]]:
    """The five counts ``_count_sums`` takes, of every value vector of one
    factor in the strata range, from one packed pass.

    One entry per vector of ``product(range(STABLE_BOUND + 1), repeat=rank)``,
    in that order.  Column i packs the i-th coefficients of the positive
    roots into one integer, byte k for the k-th root, so ``sum(v_i *
    column_i)`` holds the values of all roots at once, and ``bytes.count``
    reads off how many have value 0 to 2.  The value sum is the vector
    paired with the column sums of the coefficients.  A vector is split
    into two halves, each half's packed sums built once.  Coefficients are
    nonnegative, so the highest root at the all-bound vector has the
    largest value; while that fits in a byte, no byte carries into the
    next.  It does for every factor ``strata_rows`` admits: at rank up to
    ``MAX_STRATA_RANK`` the largest is 58, for E8.
    """
    roots = build_root_system(ct)
    n = len(roots)
    top = STABLE_BOUND * sum(roots[-1])  # the highest root comes last
    assert top < 256, f"BUG: {ct}: highest-root value {top} does not fit a byte"
    coefficients = list(zip(*roots))  # the i-th coefficient of every root
    columns = [int.from_bytes(bytes(c), "little") for c in coefficients]
    weights = list(map(sum, coefficients))
    half = ct.rank // 2
    outer = _packed_sums(columns[:half], weights[:half])
    inner = _packed_sums(columns[half:], weights[half:])
    for x, s in outer:
        for y, t in inner:
            count = (x + y).to_bytes(n, "little").count
            yield n, s + t, count(0), count(1), count(2)


Column = tuple[int, ...]


@functools.lru_cache(maxsize=None)
def _factor_table(ct: CartanType) -> tuple[Column, Column]:
    """The field and automorphism root sums of every value vector of one
    factor in the strata range, as two columns in the order of
    ``_packed_counts``.  Equal sums share one int, so an entry costs a
    pointer."""
    fields, aut = [], []
    same = {}
    for f, a in starmap(_count_sums, _packed_counts(ct)):
        fields.append(same.setdefault(f, f))
        aut.append(same.setdefault(a, a))
    return tuple(fields), tuple(aut)


# trailing factors share one inner block while it holds at most
# 3^_BLOCK_RANK rows, the size of E8's table
_BLOCK_RANK = 8


def _inner_start(ranks: list[int]) -> int:
    """The index of the first factor of the inner block, among factors of
    these ranks: the last factor, whatever its size, and the factors before
    it while the block holds at most 3^``_BLOCK_RANK`` rows."""
    # the rank sums of the tails fall as the tails shorten, so the factors
    # whose tail is too large for the block come first
    large = [tail for tail in accumulate(reversed(ranks)) if tail > _BLOCK_RANK]
    return max(min(len(large), len(ranks) - 1), 0)


def _stream(bases: Iterator[int], blocks: Iterator[Iterable[int]]) -> Iterator[int]:
    """Each base plus every entry of its block, base after base: the block
    is mapped onto its base at C speed."""
    return chain.from_iterable(map(map, map(attrgetter("__add__"), bases), blocks))


def dimension_columns(
    group: ReductiveGroup, central_degrees: tuple[int, ...] | list[int] = ()
) -> tuple[Iterator[int], Iterator[int], Iterator[int]]:
    """The field, automorphism and stratum dimensions of every stratum of
    ``group``, as three lazy columns in the order of ``strata_rows``: each
    row a base sum of the outer factors plus an entry of the inner block
    (see the module docstring), a block of several factors summed once.

    The request is checked before the columns are returned, so a rejected
    one raises here, never part way through the rows: its size, at most
    3^``MAX_STRATA_RANK`` rows, before any table is built, then the shape
    of the zero type and its central length.  Not exported: the CLI prints
    these columns, and the listing is ``strata_rows``.
    """
    if group.semisimple_rank > MAX_STRATA_RANK:
        raise ValueError(
            f"{group}: 3^{group.semisimple_rank} strata exceed the limit of "
            f"3^{MAX_STRATA_RANK}"
        )
    # every row has the shape of the zero type and nonnegative values
    zero = (0,) * group.semisimple_rank
    require_dominant(group, HNType.from_flat(group, zero, central_degrees))
    factors = group.simple_factors
    tables = list(map(_factor_table, factors))
    cut = _inner_start([ct.rank for ct in factors])
    outer, inner = tables[:cut], tables[cut:]
    if len(inner) == 1:
        fields, aut = inner[0]
    else:  # no factor at all sums to the one block entry 0
        fields, aut = (tuple(map(sum, product(*(t[i] for t in inner)))) for i in (0, 1))

    def bases(i: int, const: int) -> Iterator[int]:
        # const plus sum i (0 fields, 1 automorphisms) of each outer entry
        return map(const.__add__, map(sum, product(*(t[i] for t in outer))))

    rank = group.rank
    return (
        _stream(bases(0, 3 * rank), repeat(fields)),
        _stream(bases(1, rank), repeat(aut)),
        # the stratum: base differences plus block differences, computed
        # afresh for each base, so a cached block is never copied
        _stream(map(sub, bases(0, 3 * rank), bases(1, rank)),
                map(map, repeat(sub), repeat(fields), repeat(aut))),
    )


def strata_rows(
    group: ReductiveGroup, central_degrees: tuple[int, ...] | list[int] = ()
) -> Iterator[tuple]:
    """``enumerate_strata`` as a lazy stream of plain rows.

    Each row is ``(flat values, fields, automorphisms, stratum, generic)``,
    where ``generic`` marks the zero type, the all-zero value vector, which
    comes first.  The request is checked before the stream is returned, as
    ``dimension_columns`` does.
    """
    fields, aut, dim = dimension_columns(group, central_degrees)
    # both products step the last factor's last value fastest, so they
    # visit the types in the same order
    flats = product(range(STABLE_BOUND + 1), repeat=group.semisimple_rank)
    return zip(flats, fields, aut, dim, chain((True,), repeat(False)))


def enumerate_strata(
    group: ReductiveGroup, central_degrees: tuple[int, ...] | list[int] = ()
) -> list[StratumRecord]:
    """All strata with simple-root values in {0, 1, 2}, one per type, of
    every topological degree at once (see the module docstring).

    Every combination of simple-root values in {0, 1, 2} (up to the stable
    bound of the criterion) appears exactly once, in lexicographic order of
    the flattened value vector.  The central part is carried through
    unchanged; a wrong length is rejected before any work.  ``is_generic``
    is true for the zero type only.  The tests import it from here as the
    slow reference for ``strata_rows``.

    Not exported: it stays in ``src`` only for the benchmark's span tracer,
    until ROADMAP item 9 moves it out.
    """
    rows = strata_rows(group, central_degrees)  # checks the request
    return [
        StratumRecord(HNType.from_flat(group, flat, central_degrees), *dims, generic)
        for flat, *dims, generic in rows
    ]
