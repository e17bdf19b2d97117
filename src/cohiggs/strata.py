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
are the disjoint union of those of its simple factors, so ``strata_rows``
adds up per-factor sums, read off a table computed once per simple type
per process, cached like the root systems.  A single type asked for on
its own counts the values of ``all_root_values``.  The paper's
formulas for the automorphism and stratum dimensions are checked against
per-root sums in ``tests/test_strata.py`` (``reference_dimensions`` and
``test_automorphism_forms_agree_on_big_sweep``) and by acceptance
criterion 05.  The generic stratum has twice the group dimension.  The
``generic`` column marks the zero type, the all-zero value vector: the
top-dimension row of the class of 0 alone, not of the other classes.
"""

import functools
from collections.abc import Iterator
from itertools import product

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


RootSums = tuple[int, int]

# strata_rows refuses a group with more strata than this, before any work
MAX_STRATA_RANK = 12


def _count_sums(n: int, s: int, n0: int, n1: int, n2: int) -> RootSums:
    """The root terms of the two sums ``_totals`` adds up, from five counts.

    Field sections and automorphisms, over ``n`` positive roots with values
    summing to ``s``, of which ``n0`` .. ``n2`` have value 0 .. 2.  Each
    positive root, of value ``v >= 0``, is counted together with its
    negative, of value ``-v``: the pair has ``(v + 3) + max(0, 3 - v)``
    field sections and ``v + 1`` automorphisms plus one more at value 0.
    """
    return 3 * n + s + 3 * n0 + 2 * n1 + n2, n + s + n0


def _totals(rank: int, sums: tuple[RootSums, ...]) -> tuple[int, int, int]:
    """Field-space, automorphism and stratum dimensions, in that order.

    The first two add up the root ``sums`` and the torus terms of a group
    of ``rank``; the stratum is their difference.
    """
    fields, aut = 3 * rank, rank
    for f, a in sums:
        fields += f
        aut += a
    return fields, aut, fields - aut


def _dimensions(group: ReductiveGroup, hn: HNType) -> tuple[int, int, int]:
    """``_totals`` of any dominant type, from the values of ``all_root_values``."""
    require_dominant(group, hn)
    # each positive root comes before its negative
    positive = all_root_values(group, hn)[::2]
    counts = map(positive.count, range(3))
    return _totals(group.rank, (_count_sums(len(positive), sum(positive), *counts),))


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


@functools.lru_cache(maxsize=None)
def _factor_table(ct: CartanType) -> tuple[RootSums, ...]:
    """The two root sums of every value vector of one factor in the strata range.

    One entry per vector of ``product(range(STABLE_BOUND + 1), repeat=rank)``,
    in that order.  Column i packs the i-th coefficients of the positive
    roots into one integer, byte k for the k-th root, so ``sum(v_i *
    column_i)`` holds the values of all roots at once, and ``bytes.count``
    reads off how many have value 0 to 2.  The value sum is the vector
    paired with the column sums of the coefficients; with the root count
    these are the five counts ``_count_sums`` takes.  A vector is split
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

    def rows() -> Iterator[RootSums]:
        for x, s in outer:
            for y, t in inner:
                count = (x + y).to_bytes(n, "little").count
                yield _count_sums(n, s + t, count(0), count(1), count(2))

    return tuple(rows())


def strata_rows(
    group: ReductiveGroup, central_degrees: tuple[int, ...] | list[int] = ()
) -> Iterator[tuple]:
    """``enumerate_strata`` as a lazy stream of plain rows.

    Each row is ``(flat values, fields, automorphisms, stratum, generic)``,
    where ``generic`` marks the zero type, the all-zero value vector.
    The request is checked before the stream is returned, so a rejected one
    raises here, never part way through the rows; its size, at most
    3^``MAX_STRATA_RANK`` rows, is checked first.
    """
    if group.semisimple_rank > MAX_STRATA_RANK:
        raise ValueError(
            f"{group}: 3^{group.semisimple_rank} strata exceed the limit of "
            f"3^{MAX_STRATA_RANK}"
        )
    # every row has the shape of the zero type and nonnegative values
    zero = (0,) * group.semisimple_rank
    require_dominant(group, HNType.from_flat(group, zero, central_degrees))
    rank = group.rank
    # both products step the last factor's last value fastest, so they
    # visit the types in the same order
    flats = product(range(STABLE_BOUND + 1), repeat=group.semisimple_rank)
    tables = product(*map(_factor_table, group.simple_factors))
    return (
        (flat, *_totals(rank, sums), not any(flat))
        for flat, sums in zip(flats, tables)
    )


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
