"""Independent statements and helpers that only the tests use.

The rank-r gap rule and the symplectic half-degree rule are the classical
forms of the criterion (Rayan, *Co-Higgs bundles on P^1*, New York J. Math.
2013, for rank r).  The library decides both through
``admits_stable_cohiggs`` on ``splitting_to_hn`` and ``sp_to_hn``; the rules
here are what the tests compare that path against, as ``per_root_values``
is for ``all_root_values``, ``flat_adjoint_degrees`` for
``adjoint_multiplicities`` and ``regex_parse_group`` for ``parse_group``.
``hom_vanishing_certificate`` lists the root spaces behind the criterion's
obstruction; no library path prints it.  The rest builds inputs: the
simple types of the sweeps, the inverse of ``splitting_to_hn``, splitting
types in a degree box, entry degrees and space dimensions, and the zero
and exhaustive co-Higgs fields; ``deadline`` bounds a test's time.
"""

import contextlib
import operator
import re
import signal
from itertools import combinations_with_replacement, product

from cohiggs import (
    CartanType,
    CoHiggsMatrix,
    HNType,
    HomogPoly,
    ReductiveGroup,
    SplittingType,
    all_root_values,
    build_root_system,
)
from cohiggs.criterion import OBSTRUCTION_BOUND
from cohiggs.lie import check_shapes, require_dominant


# the simple types that the strata and adjoint-table sweeps cover
SWEEP_TYPES = [
    CartanType("A", 1), CartanType("A", 2), CartanType("A", 3), CartanType("A", 4),
    CartanType("B", 2), CartanType("B", 3), CartanType("B", 4),
    CartanType("C", 2), CartanType("C", 3), CartanType("C", 4),
    CartanType("D", 3), CartanType("D", 4),
    CartanType("F", 4), CartanType("G", 2),
]


def glr_admits_semistable(st):
    """True iff every consecutive gap is at most 2.

    Equivalently: the rank-r bundle with these degrees carries a semistable
    co-Higgs field, and then a generic field is stable.
    """
    return all(g <= 2 for g in st.gaps())


def sp_admits_stable(ss):
    """True iff all r gaps (including the doubled middle one) are <= 2."""
    return all(g <= 2 for g in ss.gaps())


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the block after ``seconds``.

    A bounded-time test must fail, not hang, when its bound is broken: the
    alarm raises in the test, and ``cli.main`` lets anything but
    ``ValueError`` through.
    """
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def per_root_values(group, hn):
    """Slow reference for ``all_root_values``: one dot product per root.

    It pairs every positive root of ``build_root_system`` with the factor's
    simple-root values, in the layout of ``all_root_values``: factor by
    factor, each positive value followed by its negative.  The classical
    fast path and the packed strata factor tables are both checked against
    it.
    """
    check_shapes(group, hn)
    out = []
    for ct, vec in zip(group.simple_factors, hn.simple_values):
        for root in build_root_system(ct):
            v = sum(map(operator.mul, root, vec))
            out += (v, -v)
    return out


def flat_adjoint_degrees(group, hn):
    """Slow reference for ``adjoint_multiplicities``: the adjoint splitting
    as one flat list, every root value plus one zero per torus direction,
    sorted decreasing.  The CLI printed this list before it printed runs."""
    require_dominant(group, hn)
    return sorted(all_root_values(group, hn) + [0] * group.rank, reverse=True)


_FACTOR_RE = re.compile(r"([A-G])([0-9]+)")
_GROUP_RE = re.compile(r"^([A-G][0-9]+(?:x[A-G][0-9]+)*)?(?:\+z([0-9]+))?$")


def regex_parse_group(text):
    """Slow reference for ``parse_group``: its grammar as two regular
    expressions, with the same refusals in the same order."""
    m = _GROUP_RE.match(text.strip())
    factors_text, central_text = m.groups("") if m else ("", "")
    central = int(central_text or 0)
    if not (factors_text or central):
        raise ValueError(f"cannot parse group {text!r}")
    factors = tuple(
        CartanType(fam, int(rank)) for fam, rank in _FACTOR_RE.findall(factors_text)
    )
    return ReductiveGroup(factors, central)


def hom_vanishing_certificate(
    group: ReductiveGroup, hn: HNType, factor: int, root: int
) -> list[tuple[tuple[int, ...], int]]:
    """Certify that every co-Higgs field preserves the offending parabolic.

    For a simple root with value >= 3 the quotient of the adjoint bundle by
    the adjoint of its maximal parabolic is the sum of the root spaces whose
    coefficient on that simple root is negative, i.e. the negative roots of
    the factor using it.  Each such root pairs to at most -3, so its line
    bundle twisted by the tangent bundle has no sections.  Returns the list
    of (root, degree) pairs; the degree bound is asserted.
    """
    require_dominant(group, hn)
    if not (0 <= factor < len(group.simple_factors)):
        raise ValueError(f"no factor {factor}")
    vec = hn.simple_values[factor]
    if not (0 <= root < len(vec)):
        raise ValueError(f"no simple root {root} in factor {factor}")
    if vec[root] < OBSTRUCTION_BOUND:
        raise ValueError(
            f"simple root {root} of factor {factor} has value {vec[root]} < "
            f"{OBSTRUCTION_BOUND}; nothing to certify"
        )
    summands = []
    for pos in build_root_system(group.simple_factors[factor]):
        if pos[root] == 0:
            continue
        neg = tuple(-c for c in pos)
        degree = sum(map(operator.mul, neg, vec))
        assert degree <= -OBSTRUCTION_BOUND, (
            f"BUG: summand {neg} has degree {degree} > -3"
        )
        summands.append((neg, degree))
    return summands



def hn_to_splitting(group, hn):
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
    return SplittingType(t + base for t in tails)


def hom_degree(st, i, j):
    """Degree of the form housing entry (i, j) of a co-Higgs field.

    Indices are 0-based; the entry maps summand j into summand i, twisted by
    the degree-2 tangent bundle, so the degree is ``m_i - m_j + 2``.  A
    negative value means the entry space is zero.
    """
    if not (0 <= i < st.rank and 0 <= j < st.rank):
        raise IndexError(f"entry ({i}, {j}) out of range for rank {st.rank}")
    return st.degrees[i] - st.degrees[j] + 2


def hom_space_dim(st, i, j):
    """Dimension of the entry space at (i, j): ``max(0, m_i - m_j + 3)``."""
    return max(0, hom_degree(st, i, j) + 1)


def enumerate_splitting_types(rank, min_degree, max_degree):
    """All weakly decreasing degree lists of a rank within a degree box,
    in lexicographically decreasing order."""
    degrees = range(max_degree, min_degree - 1, -1)
    return (SplittingType(d) for d in combinations_with_replacement(degrees, rank))


def _entry_degrees(st):
    r = st.rank
    return [[hom_degree(st, i, j) for j in range(r)] for i in range(r)]


def zero_field(st, field):
    """The zero co-Higgs field."""
    grid = [[HomogPoly.zero(field, d) for d in row] for row in _entry_degrees(st)]
    return CoHiggsMatrix(st, field, grid)


def enumerate_all_fields(st, field):
    """Every co-Higgs matrix on a splitting over a prime field.

    The iteration ranges over the structurally free coefficients only;
    entries with negative degree stay zero.  The coefficient tuples are
    drawn entry by entry in row-major order, the last entry varying fastest.
    """
    r = st.rank
    degrees = _entry_degrees(st)
    slots = [hom_space_dim(st, i, j) for i in range(r) for j in range(r)]
    # an entry in a zero space has no slots and contributes one empty tuple
    for combo in product(*(product(range(field.p), repeat=n) for n in slots)):
        coeffs = iter(combo)
        grid = [[HomogPoly(field, d, next(coeffs)) for d in row] for row in degrees]
        yield CoHiggsMatrix(st, field, grid)
