"""Existence of stable co-Higgs fields from simple-root values alone.

For a dominant Harder-Narasimhan type the decision is a componentwise
threshold: a stable co-Higgs field exists iff every simple-root value is at
most 2, and any value of 3 or more rules out even a semistable field.  There
is no intermediate band.  The obstruction comes with a vanishing certificate
(every root space outside the offending maximal parabolic sits in a line
bundle of degree at most -3, so twisting by the degree-2 tangent bundle
leaves no sections); the tests list and check it with a helper in
``tests/reference.py``.  The rank-r gap rule and the symplectic rule are
this criterion on the data of ``splitting_to_hn`` and ``sp_to_hn``.

The adjoint splitting is a multiset of at most 2h + 1 distinct degrees, h
the highest root's value, so it is held as its multiplicity table and
expanded into a ``SplittingType`` only on request.
"""

from itertools import chain, repeat
from operator import neg

from .frozen import Frozen
from .glr import SplittingType
from .lie import (
    HNType,
    ReductiveGroup,
    positive_value_counts,
    require_dominant,
)

STABLE_BOUND = 2
OBSTRUCTION_BOUND = STABLE_BOUND + 1


class RootViolation(Frozen):
    """A simple root whose value obstructs semistability."""

    __slots__ = ("factor", "root", "value")


class CriterionReport(Frozen):
    """The obstructing simple roots of one HN type and the multiplicity
    table of its adjoint splitting (``adjoint_multiplicities``)."""

    __slots__ = ("violating_roots", "adjoint_multiplicities")

    @property
    def admits_stable(self) -> bool:
        return not self.violating_roots

    @property
    def adjoint_degrees(self) -> SplittingType:
        return _expand(self.adjoint_multiplicities)


def admits_stable_cohiggs(group: ReductiveGroup, hn: HNType) -> bool:
    """True iff every simple-root value is at most 2.

    Central degrees never matter: simple roots vanish on the center.
    """
    return not semistable_obstruction(group, hn)


def semistable_obstruction(group: ReductiveGroup, hn: HNType) -> list[RootViolation]:
    """Simple roots with value >= 3; nonempty iff no semistable field exists.

    Empty exactly when ``admits_stable_cohiggs`` holds -- integer values
    leave no gap between the two thresholds.
    """
    require_dominant(group, hn)
    return [
        RootViolation(k, i, v)
        for k, vec in enumerate(hn.simple_values)
        for i, v in enumerate(vec)
        if v >= OBSTRUCTION_BOUND
    ]


def adjoint_multiplicities(
    group: ReductiveGroup, hn: HNType
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The adjoint splitting as runs: its distinct degrees, decreasing, and
    the multiplicity of each, as two tuples of the same length.

    ad E is the sum of O(alpha(mu)) over the roots alpha, plus one O(0)
    per torus direction: each positive value d > 0 gives the degrees d
    and -d, and the zeros are twice the positive roots of value 0 plus
    the rank.  The counts sum to dim G and the table is symmetric under
    negation.  Two tuples, not one pair per run, because a type with
    large values has about as many distinct degrees as roots.
    """
    require_dominant(group, hn)
    counts = positive_value_counts(group, hn)
    zeros = 2 * counts.pop(0, 0) + group.rank
    top = sorted(counts, reverse=True)
    tally = list(map(counts.__getitem__, top))
    middle = 1 if zeros else 0
    return (
        (*top, *[0] * middle, *map(neg, reversed(top))),
        (*tally, *[zeros] * middle, *reversed(tally)),
    )


def _expand(multiplicities: tuple[tuple[int, ...], tuple[int, ...]]) -> SplittingType:
    return SplittingType(chain.from_iterable(map(repeat, *multiplicities)))


def adjoint_splitting(group: ReductiveGroup, hn: HNType) -> SplittingType:
    """Splitting type of the adjoint bundle through the torus reduction.

    ``adjoint_multiplicities`` expanded: root values over the full root
    set plus one zero per torus direction, sorted weakly decreasing; the
    total degree is always zero.  No library path calls it; it stays for
    callers that want the degrees one by one.
    """
    return _expand(adjoint_multiplicities(group, hn))


def evaluate_criterion(group: ReductiveGroup, hn: HNType) -> CriterionReport:
    return CriterionReport(
        tuple(semistable_obstruction(group, hn)), adjoint_multiplicities(group, hn)
    )
