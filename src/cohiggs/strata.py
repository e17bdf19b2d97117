"""Stratification of the co-Higgs moduli by Harder-Narasimhan type.

Fixing the topological degree leaves finitely many allowed types: every
simple-root value must lie in {0, 1, 2}.  Each stratum is the space of
fields on the corresponding bundle modulo its automorphisms.  All three
dimensions are direct sums of section counts over the root spaces.  The
root values of a type are the disjoint union of those of its simple factors,
so in ``strata_rows`` every sum, and both closed forms, add up per-factor
sums; each factor's sums are read off the histogram of its root values,
computed once per simple type per process, cached like the root systems.
A single type asked for on its own counts the values of
``all_root_values``, which builds no roots for the classical families.
The closed forms are asserted against the direct sums on the group totals
of every type; the generic stratum (type zero) always has dimension twice
the group dimension.

The field-space dimension deliberately avoids its tempting closed form: the
consistent simplification adds ``value - 3`` per root value above 3, and the
variant with ``value + 3`` is wrong (it disagrees with the stratum formula
by six per large root).  Direct summation sidesteps the issue and the test
suite pins the discrepancy.
"""

from __future__ import annotations

import functools
from collections import Counter
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


def _root_sums(positive: Counter) -> RootSums:
    """The root terms of the four sums ``_dimensions`` totals.

    In order: field sections, automorphisms, the automorphism closed form
    and the stratum closed form's deficit.  ``positive`` counts the values
    of positive roots; each, of value ``v >= 0``, is counted together with
    its negative, of value ``-v``.
    """
    fields = aut = closed = deficit = 0
    for v, n in positive.items():
        fields += n * ((v + 3) + max(0, -v + 3))
        aut += n * ((v + 1) + (v == 0))
        if v > 1:
            closed += n * (v - 1)
            deficit += n * (2 if v > 3 else v - 1)
    return fields, aut, closed, deficit


def _totals(rank: int, dim: int, sums: tuple[RootSums, ...]) -> tuple[int, int, int]:
    """Field-space, automorphism and stratum dimensions, in that order.

    All three, and both closed forms asserted against them, add up the
    root ``sums`` and terms from the ``rank`` and ``dim`` of the group.
    """
    fields, aut, closed, deficit = map(sum, zip((3 * rank, rank, dim, 0), *sums))
    assert aut == closed, f"BUG: automorphism forms disagree: {aut} != {closed}"
    stratum = fields - aut
    closed = 2 * dim - deficit
    assert stratum == closed, f"BUG: stratum forms disagree: {stratum} != {closed}"
    return fields, aut, stratum


def _dimensions(group: ReductiveGroup, hn: HNType) -> tuple[int, int, int]:
    """``_totals`` of any dominant type, from the values of ``all_root_values``."""
    require_dominant(group, hn)
    # each positive root comes before its negative
    sums = _root_sums(Counter(all_root_values(group, hn)[::2]))
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


@functools.lru_cache(maxsize=None)
def _factor_table(ct: CartanType) -> tuple[RootSums, ...]:
    """``_root_sums`` of every value vector of one factor in the strata range.

    One entry per vector of ``product(range(STABLE_BOUND + 1), repeat=rank)``,
    in that order.  Column i packs the i-th coefficients of the positive
    roots into one integer, byte k for the k-th root, so ``sum(v_i *
    column_i)`` holds the values of all roots at once.  Coefficients are
    nonnegative, so the highest root at the all-bound vector has the largest
    value; while that fits in a byte, no byte carries into the next.
    """
    bound = (STABLE_BOUND,) * ct.rank
    # the highest root has height h - 1 for the Coxeter number h, the number
    # of roots over the rank (Bourbaki, ch. VI, 1.11, prop. 31), so a factor
    # past the bound is rejected before its roots are built
    top = STABLE_BOUND * ((ct.dim - ct.rank) // ct.rank - 1)
    if top > 255:
        raise ValueError(f"{ct}: highest-root value {top} of {bound} exceeds 255")
    roots = build_root_system(ct)
    columns = [int.from_bytes(bytes(col), "little") for col in zip(*roots)]
    # the product of the columns' multiples runs in the vectors' order
    multiples = ([v * col for v in range(STABLE_BOUND + 1)] for col in columns)
    return tuple(
        _root_sums(Counter(sum(terms).to_bytes(len(roots), "little")))
        for terms in product(*multiples)
    )


def strata_rows(
    group: ReductiveGroup, central_degrees: tuple[int, ...] | list[int] = ()
) -> Iterator[tuple]:
    """``enumerate_strata`` as a lazy stream of plain rows.

    Each row is ``(flat values, fields, automorphisms, stratum, generic)``.
    The request is checked before the stream is returned, so a rejected one
    raises here, never part way through the rows.
    """
    # every row has the shape of the zero type and nonnegative values
    zero = (0,) * group.semisimple_rank
    require_dominant(group, HNType.from_flat(group, zero, central_degrees))
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
