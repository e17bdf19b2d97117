"""Stratification of the co-Higgs moduli by Harder-Narasimhan type.

Fixing the topological degree leaves finitely many allowed types: every
simple-root value must lie in {0, 1, 2}.  Each stratum is the space of
fields on the corresponding bundle modulo its automorphisms.  All three
dimensions are sums of section counts over the root spaces.  Each root's
term is piecewise linear in its value, with breakpoints at 0 to 3, so a
factor's sums depend only on six counts: its positive roots, the sum of
their values and how many have value 0, 1, 2 and 3 (``_count_sums``).
The root values of a type are the disjoint union of those of its simple
factors, so in ``strata_rows`` every sum, and both closed forms, add up
per-factor sums, read off a table computed once per simple type per
process, cached like the root systems.  A single type asked for on its
own counts the values of ``all_root_values``, which builds no roots for
the classical families.  The closed forms are asserted against the sums
on the group totals of every type; the generic stratum (type zero) always
has dimension twice the group dimension.

The field-space sum takes the consistent closed form on counts: a root
pair contributes 6 sections up to value 3 and ``6 + (value - 3)`` past it.
The tempting variant with ``value + 3`` in place of ``value - 3`` is wrong
(it disagrees with the stratum formula by six per large root), and the
test suite pins the discrepancy.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product

from .criterion import STABLE_BOUND
from .lie import (
    CartanType,
    HNType,
    ReductiveGroup,
    all_root_values,
    build_root_system,
    require_dominant,
)


@dataclass(frozen=True)
class StratumRecord:
    hn: HNType
    dim_cohiggs: int
    dim_aut: int
    dim_stratum: int
    is_generic: bool


RootSums = tuple[int, int, int, int]

# strata_rows refuses a group with more strata than this, before any work
MAX_STRATA_RANK = 12


def _count_sums(n: int, s: int, n0: int, n1: int, n2: int, n3: int) -> RootSums:
    """The root terms of the four sums ``_totals`` adds up, from six counts.

    In order: field sections, automorphisms, the automorphism closed form
    and the stratum closed form's deficit, over ``n`` positive roots with
    values summing to ``s``, of which ``n0`` .. ``n3`` have value 0 .. 3.
    Each positive root, of value ``v >= 0``, is counted together with its
    negative, of value ``-v``, and every term is piecewise linear in ``v``
    with breakpoints at 0 to 3: the pair has ``6`` field sections up to
    value 3 and ``6 + (v - 3)`` past it, ``v + 1`` automorphisms plus one
    more at value 0, ``v - 1`` in the closed form past value 1 and a
    deficit of ``v - 1`` at values 2 and 3 and of 2 past them.
    """
    big = n - n0 - n1 - n2 - n3  # roots of value above 3
    return (
        6 * n + (s - n1 - 2 * n2 - 3 * n3) - 3 * big,
        s + n + n0,
        s - n + n0,
        2 * big + n2 + 2 * n3,
    )


def _totals(rank: int, dim: int, sums: tuple[RootSums, ...]) -> tuple[int, int, int]:
    """Field-space, automorphism and stratum dimensions, in that order.

    All three, and both closed forms asserted against them, add up the
    root ``sums`` and terms from the ``rank`` and ``dim`` of the group.
    """
    fields, aut, closed, deficit = 3 * rank, rank, dim, 0
    for f, a, c, d in sums:
        fields += f
        aut += a
        closed += c
        deficit += d
    assert aut == closed, f"BUG: automorphism forms disagree: {aut} != {closed}"
    stratum = fields - aut
    closed = 2 * dim - deficit
    assert stratum == closed, f"BUG: stratum forms disagree: {stratum} != {closed}"
    return fields, aut, stratum


def _dimensions(group: ReductiveGroup, hn: HNType) -> tuple[int, int, int]:
    """``_totals`` of any dominant type, from the values of ``all_root_values``."""
    require_dominant(group, hn)
    # each positive root comes before its negative
    positive = all_root_values(group, hn)[::2]
    counts = map(positive.count, range(4))
    sums = _count_sums(len(positive), sum(positive), *counts)
    return _totals(group.rank, group.dim, (sums,))


def dim_cohiggs_space(group: ReductiveGroup, hn: HNType) -> int:
    """Dimension of the space of co-Higgs fields on a bundle of this type.

    Three sections per torus direction plus, for each root, the sections of
    a line bundle of degree ``value + 2``: that is ``value + 3`` when the
    value is at least -3 and zero otherwise.
    """
    return _dimensions(group, hn)[0]


def dim_automorphisms(group: ReductiveGroup, hn: HNType) -> int:
    """Dimension of the automorphism group of the bundle.

    One per torus direction plus ``value + 1`` for each root with
    nonnegative value.  The equivalent form dim(G) + sum of (value - 1) over
    roots with value > 1 is evaluated too and asserted equal.
    """
    return _dimensions(group, hn)[1]


def dim_stratum(group: ReductiveGroup, hn: HNType) -> int:
    """Stratum dimension: fields minus automorphisms.

    The closed form 2 dim(G) - 2 #{value > 3} - sum of (value - 1) over
    1 < value <= 3 is asserted against the subtraction (the automorphisms
    act freely on a generic field, so dimensions subtract).
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
    """``_count_sums`` of every value vector of one factor in the strata range.

    One entry per vector of ``product(range(STABLE_BOUND + 1), repeat=rank)``,
    in that order.  Column i packs the i-th coefficients of the positive
    roots into one integer, byte k for the k-th root, so ``sum(v_i *
    column_i)`` holds the values of all roots at once, and ``bytes.count``
    reads off how many have value 0 to 3.  The value sum is the vector
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

    def rows() -> Iterator[RootSums]:
        for x, s in outer:
            for y, t in inner:
                count = (x + y).to_bytes(n, "little").count
                yield _count_sums(n, s + t, count(0), count(1), count(2), count(3))

    return tuple(rows())


def strata_rows(
    group: ReductiveGroup, central_degrees: tuple[int, ...] | list[int] = ()
) -> Iterator[tuple]:
    """``enumerate_strata`` as a lazy stream of plain rows.

    Each row is ``(flat values, fields, automorphisms, stratum, generic)``.
    The request is checked before the stream is returned, so a rejected one
    raises here, never part way through the rows; so is its size, at most
    3^``MAX_STRATA_RANK`` rows.
    """
    # every row has the shape of the zero type and nonnegative values
    zero = (0,) * group.semisimple_rank
    require_dominant(group, HNType.from_flat(group, zero, central_degrees))
    if group.semisimple_rank > MAX_STRATA_RANK:
        raise ValueError(
            f"{group}: 3^{group.semisimple_rank} strata exceed the limit of "
            f"3^{MAX_STRATA_RANK}"
        )
    rank, dim = group.rank, group.dim
    # both products step the last factor's last value fastest, so they
    # visit the types in the same order
    flats = product(range(STABLE_BOUND + 1), repeat=group.semisimple_rank)
    tables = product(*map(_factor_table, group.simple_factors))
    return (
        (flat, *_totals(rank, dim, sums), not any(flat))
        for flat, sums in zip(flats, tables)
    )


def enumerate_strata(
    group: ReductiveGroup, central_degrees: tuple[int, ...] | list[int] = ()
) -> list[StratumRecord]:
    """All strata of a fixed topological degree, one per allowed type.

    Every combination of simple-root values in {0, 1, 2} (up to the stable
    bound of the criterion) appears exactly once, in lexicographic order of
    the flattened value vector.  The central part is carried through
    unchanged; a wrong length is rejected before any work.
    """
    rows = strata_rows(group, central_degrees)  # checks the request
    return [
        StratumRecord(HNType.from_flat(group, flat, central_degrees), *dims, generic)
        for flat, *dims, generic in rows
    ]
