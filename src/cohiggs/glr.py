"""Splitting types on the projective line and the rank-r gap criterion.

A holomorphic bundle on the line splits as a direct sum of line bundles; the
weakly decreasing list of their degrees is its splitting type.  A co-Higgs
field twists endomorphisms by the degree-2 tangent bundle, which makes the
entry (i, j) of any field a form of degree ``m_i - m_j + 2``.  The bundle
carries a semistable (equivalently, for generic fields, stable) co-Higgs
field exactly when consecutive gaps never exceed 2.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations_with_replacement

from .frozen import Frozen, set_slot
from .lie import CartanType, HNType, ReductiveGroup, check_shapes


class SplittingType(Frozen):
    """A weakly decreasing list of line-bundle degrees.

    The criterion is meaningless on unsorted degree lists, so the constructor
    sorts unconditionally; a degree that is not an integer raises
    ``TypeError``.
    """

    __slots__ = ("degrees",)

    def __init__(self, degrees: tuple[int, ...]) -> None:
        degrees = sorted(map(operator.index, degrees), reverse=True)
        if not degrees:
            raise ValueError("a splitting type needs at least one summand")
        set_slot(self, "degrees", tuple(degrees))

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)

    def gaps(self) -> tuple[int, ...]:
        return tuple(
            self.degrees[i] - self.degrees[i + 1] for i in range(self.rank - 1)
        )

    def dual(self) -> "SplittingType":
        return SplittingType(tuple(-m for m in reversed(self.degrees)))

    def __str__(self) -> str:
        return ",".join(str(m) for m in self.degrees)


def glr_admits_semistable(st: SplittingType) -> bool:
    """True iff every consecutive gap is at most 2.

    Equivalently: the rank-r bundle with these degrees carries a semistable
    co-Higgs field, and then a generic field is stable.
    """
    return all(g <= 2 for g in st.gaps())


def splitting_to_hn(st: SplittingType) -> tuple[ReductiveGroup, HNType]:
    """Translate a splitting type to group data: A_(r-1) plus a central line.

    The simple-root values are the consecutive gaps and the central degree is
    the total degree; rank 1 gives a pure torus.
    """
    r = st.rank
    if r == 1:
        group = ReductiveGroup((), central_rank=1)
        return group, HNType((), (st.degree,))
    group = ReductiveGroup((CartanType("A", r - 1),), central_rank=1)
    return group, HNType((st.gaps(),), (st.degree,))


def hn_to_splitting(group: ReductiveGroup, hn: HNType) -> SplittingType:
    """Inverse of ``splitting_to_hn`` for the A-plus-center shape.

    Requires the group to be A_(r-1) with central rank 1 (or a pure rank-1
    torus) and the central degree to be compatible with an integer base
    degree.
    """
    check_shapes(group, hn)
    if group.central_rank != 1:
        raise ValueError("expected central rank 1")
    if not group.simple_factors:
        return SplittingType((hn.central_degrees[0],))
    if len(group.simple_factors) != 1 or group.simple_factors[0].family != "A":
        raise ValueError("expected a single A-type factor")
    gaps = hn.simple_values[0]
    r = len(gaps) + 1
    total = hn.central_degrees[0]
    tails = [0] * r  # m_i - m_r
    for i in range(r - 2, -1, -1):
        tails[i] = tails[i + 1] + gaps[i]
    base, rem = divmod(total - sum(tails), r)
    if rem:
        raise ValueError("central degree incompatible with the gap vector")
    return SplittingType(tuple(t + base for t in tails))


def hom_degree(st: SplittingType, i: int, j: int) -> int:
    """Degree of the form housing entry (i, j) of a co-Higgs field.

    Indices are 0-based; the entry maps summand j into summand i, twisted by
    the degree-2 tangent bundle, so the degree is ``m_i - m_j + 2``.  A
    negative value means the entry space is zero.
    """
    if not (0 <= i < st.rank and 0 <= j < st.rank):
        raise IndexError(f"entry ({i}, {j}) out of range for rank {st.rank}")
    return st.degrees[i] - st.degrees[j] + 2


def hom_space_dim(st: SplittingType, i: int, j: int) -> int:
    """Dimension of the entry space at (i, j): ``max(0, m_i - m_j + 3)``."""
    return max(0, hom_degree(st, i, j) + 1)


def enumerate_splitting_types(
    rank: int, min_degree: int, max_degree: int
) -> Iterable[SplittingType]:
    """All weakly decreasing degree lists of a rank within a degree box,
    in lexicographically decreasing order."""
    degrees = range(max_degree, min_degree - 1, -1)
    return (SplittingType(d) for d in combinations_with_replacement(degrees, rank))
