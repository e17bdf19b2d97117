"""Stratification of the co-Higgs moduli by Harder-Narasimhan type.

Fixing the topological degree leaves finitely many allowed types: every
simple-root value must lie in {0, 1, 2}.  Each stratum is the space of
fields on the corresponding bundle modulo its automorphisms.  All three
dimensions are direct sums of section counts over the root spaces, and all
of them, together with both closed forms, are read off one histogram of the
root values per type.  The closed forms are asserted against the direct
sums on every call; the generic stratum (type zero) always has dimension
twice the group dimension.

The field-space dimension deliberately avoids its tempting closed form: the
consistent simplification adds ``value - 3`` per root value above 3, and the
variant with ``value + 3`` is wrong (it disagrees with the stratum formula
by six per large root).  Direct summation sidesteps the issue and the test
suite pins the discrepancy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product

from .criterion import STABLE_BOUND
from .lie import (
    HNType,
    ReductiveGroup,
    all_root_values,
    require_dominant,
)


@dataclass(frozen=True)
class StratumRecord:
    hn: HNType
    dim_cohiggs: int
    dim_aut: int
    dim_stratum: int
    is_generic: bool


def _dimensions(group: ReductiveGroup, hn: HNType) -> tuple[int, int, int]:
    """Field-space, automorphism and stratum dimensions, in that order.

    All three, and both closed forms asserted against them, depend only on
    the multiset of root values, so one histogram of it serves every sum.
    """
    require_dominant(group, hn)
    hist = Counter(all_root_values(group, hn)).items()
    fields = 3 * group.rank + sum(n * max(0, v + 3) for v, n in hist)
    aut = group.rank + sum(n * (v + 1) for v, n in hist if v > -1)
    closed = group.dim + sum(n * (v - 1) for v, n in hist if v > 1)
    assert aut == closed, f"BUG: automorphism forms disagree: {aut} != {closed}"
    stratum = fields - aut
    closed = (
        2 * group.dim
        - 2 * sum(n for v, n in hist if v > 3)
        - sum(n * (v - 1) for v, n in hist if 1 < v <= 3)
    )
    assert stratum == closed, f"BUG: stratum forms disagree: {stratum} != {closed}"
    return fields, aut, stratum


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


def enumerate_strata(
    group: ReductiveGroup, central_degrees: tuple[int, ...] | list[int] = ()
) -> list[StratumRecord]:
    """All strata of a fixed topological degree, one per allowed type.

    Every combination of simple-root values in {0, 1, 2} (up to the stable
    bound of the criterion) appears exactly once, in lexicographic order of
    the flattened value vector.  The central part is carried through
    unchanged; the shape check of the first record rejects a wrong length.
    """
    central = tuple(central_degrees)
    records = []
    for flat in product(range(STABLE_BOUND + 1), repeat=group.semisimple_rank):
        hn = HNType.from_flat(group, flat, central)
        records.append(
            StratumRecord(hn, *_dimensions(group, hn), is_generic=not any(flat))
        )
    return records
