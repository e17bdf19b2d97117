"""The symplectic-group specialization of the stability criterion.

A rank-2r symplectic bundle on the line splits with palindromic degrees
(e_1, ..., e_r, -e_r, ..., -e_1); the half-degree list determines
everything.  ``sp_to_hn`` reads it as C_r data whose simple-root values are
the consecutive half-degree gaps and then the middle gap 2 e_r, the long
root last, so ``admits_stable_cohiggs`` on that pair is the symplectic
criterion: a stable co-Higgs field exists iff all r values are at most 2.
"""

from __future__ import annotations

import operator

from .frozen import Frozen, set_slot
from .lie import CartanType, HNType, ReductiveGroup


class SymplecticSplitting(Frozen):
    """Weakly decreasing, nonnegative half-degrees e_1 >= ... >= e_r >= 0."""

    __slots__ = ("half_degrees",)

    def __init__(self, half_degrees: tuple[int, ...]) -> None:
        e = tuple(map(operator.index, half_degrees))
        if not e:
            raise ValueError("need at least one half-degree")
        if any(e[i] < e[i + 1] for i in range(len(e) - 1)):
            raise ValueError("half-degrees must be weakly decreasing")
        if e[-1] < 0:
            raise ValueError("half-degrees must be nonnegative")
        set_slot(self, "half_degrees", e)

    @property
    def r(self) -> int:
        return len(self.half_degrees)

    @property
    def full_degrees(self) -> tuple[int, ...]:
        """The rank-2r degree list (e_1, ..., e_r, -e_r, ..., -e_1)."""
        e = self.half_degrees
        return e + tuple(-x for x in reversed(e))

    def gaps(self) -> tuple[int, ...]:
        """The simple-root values ``sp_to_hn`` assigns: the consecutive
        half-degree gaps, then the middle gap 2 e_r."""
        e = self.half_degrees
        return tuple(e[i] - e[i + 1] for i in range(self.r - 1)) + (2 * e[-1],)


def sp_to_hn(ss: SymplecticSplitting) -> tuple[ReductiveGroup, HNType]:
    """Map half-degrees to C_r data with the long root in the last slot.

    Rank 1 folds to A_1 with the doubled value, since Sp(2) = SL(2).
    """
    ct = CartanType("A", 1) if ss.r == 1 else CartanType("C", ss.r)
    return ReductiveGroup((ct,)), HNType((ss.gaps(),))
