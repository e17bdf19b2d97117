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
"""

from __future__ import annotations

from .frozen import Frozen
from .glr import SplittingType
from .lie import (
    HNType,
    ReductiveGroup,
    all_root_values,
    require_dominant,
)

STABLE_BOUND = 2
OBSTRUCTION_BOUND = STABLE_BOUND + 1


class RootViolation(Frozen):
    """A simple root whose value obstructs semistability."""

    __slots__ = ("factor", "root", "value")


class CriterionReport(Frozen):
    """The obstructing simple roots of one HN type and its adjoint splitting."""

    __slots__ = ("violating_roots", "adjoint_degrees")

    @property
    def admits_stable(self) -> bool:
        return not self.violating_roots

    def to_json_dict(self) -> dict:
        return {
            "admits_stable": self.admits_stable,
            "obstruction": [
                {"factor": v.factor, "root": v.root, "value": v.value}
                for v in self.violating_roots
            ],
            "adjoint_degrees": list(self.adjoint_degrees.degrees),
        }


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


def adjoint_splitting(group: ReductiveGroup, hn: HNType) -> SplittingType:
    """Splitting type of the adjoint bundle through the torus reduction.

    Root values over the full root set plus one zero per torus direction,
    sorted weakly decreasing; the total degree is always zero.
    """
    require_dominant(group, hn)
    values = all_root_values(group, hn)
    values += [0] * group.rank
    return SplittingType(values)


def evaluate_criterion(group: ReductiveGroup, hn: HNType) -> CriterionReport:
    return CriterionReport(tuple(semistable_obstruction(group, hn)), adjoint_splitting(group, hn))
