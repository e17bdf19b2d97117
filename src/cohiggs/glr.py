"""Splitting types on the projective line.

A holomorphic bundle on the line splits as a direct sum of line bundles; the
weakly decreasing list of their degrees is its splitting type.  A co-Higgs
field twists endomorphisms by the degree-2 tangent bundle, which makes the
entry (i, j) of any field a form of degree ``m_i - m_j + 2``.  As group data
the splitting is A_(r-1) plus a central line whose simple-root values are the
consecutive gaps (``splitting_to_hn``), so ``admits_stable_cohiggs`` on that
pair is the rank-r criterion: a semistable (for generic fields, stable)
co-Higgs field exists exactly when no gap exceeds 2.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

from .frozen import Frozen, set_slot
from .lie import CartanType, HNType, ReductiveGroup


class SplittingType(Frozen):
    """A weakly decreasing list of line-bundle degrees.

    The criterion is meaningless on unsorted degree lists, so the constructor
    sorts unconditionally; a degree that is not an integer raises
    ``TypeError``.
    """

    __slots__ = ("degrees",)

    def __init__(self, degrees: Iterable[int]) -> None:
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

    def gaps(self) -> tuple[int, ...]:
        return tuple(
            self.degrees[i] - self.degrees[i + 1] for i in range(self.rank - 1)
        )

    def dual(self) -> "SplittingType":
        return SplittingType(-m for m in self.degrees)

    def __str__(self) -> str:
        return ",".join(str(m) for m in self.degrees)


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

