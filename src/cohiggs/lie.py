"""Exact root-system and reductive-group arithmetic.

Roots are stored as integer coefficient vectors in the simple-root basis, so
pairing a root against a cocharacter reduces to an integer dot product and no
irrational arithmetic ever occurs.  A reductive group is modeled as a list of
simple Cartan factors plus a central torus rank; a Harder-Narasimhan type is
the dominant cocharacter of the group recorded through its simple-root values
(one integer vector per factor) together with the degrees on the center.
The values of all roots of a classical factor are partial sums of its
simple-root values, so ``all_root_values`` builds roots only for E, F and G.

Conventions:

* Cartan matrix entry ``A[i][j]`` is the pairing of the j-th simple root
  against the i-th simple coroot, so the reflection through the i-th simple
  root sends a coefficient vector ``c`` to ``c - (A[i] . c) e_i``.
* For the B family the last simple root is short, for C it is long, matching
  the symplectic presentation where the doubled gap sits in the last slot.
* For G2 the first simple root is short, so the highest root is (3, 2).
"""

from __future__ import annotations

import functools
import operator
import re
from itertools import accumulate, combinations, starmap

from .frozen import Frozen, set_slot

# Per Cartan family: the smallest rank, the largest (None when unbounded)
# and the Lie-algebra dimension, which also cross-checks root counts.
_FAMILIES = {
    "A": (1, None, lambda n: n * (n + 2)),
    "B": (2, None, lambda n: n * (2 * n + 1)),
    "C": (2, None, lambda n: n * (2 * n + 1)),
    "D": (3, None, lambda n: n * (2 * n - 1)),
    "E": (6, 8, lambda n: {6: 78, 7: 133, 8: 248}[n]),
    "F": (4, 4, lambda n: 52),
    "G": (2, 2, lambda n: 14),
}


class CartanType(Frozen):
    """A simple Cartan type such as A3, C2 or E8."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        if family not in _FAMILIES:
            raise ValueError(f"unknown Cartan family {family!r}")
        rank = operator.index(rank)
        lo, hi, _ = _FAMILIES[family]
        if rank < lo or (hi is not None and rank > hi):
            raise ValueError(f"rank {rank} invalid for family {family}")
        set_slot(self, "family", family)
        set_slot(self, "rank", rank)

    @property
    def dim(self) -> int:
        """Dimension of the simple Lie algebra of this type."""
        return _FAMILIES[self.family][2](self.rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def cartan_matrix(ct: CartanType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of a simple type, rows indexed by simple coroots."""
    n = ct.rank
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def edge(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    # the chain 0 - 1 - ... - (n - 2), then each family's end edges
    for i in range(n - 2):
        edge(i, i + 1)
    fam = ct.family
    if fam == "A" and n > 1:
        edge(n - 2, n - 1)
    elif fam == "B":
        edge(n - 2, n - 1, -1, -2)  # last root short
    elif fam == "C":
        edge(n - 2, n - 1, -2, -1)  # last root long
    elif fam == "D":
        edge(n - 3, n - 1)
    elif fam == "E":
        edge(n - 4, n - 1)
    elif fam == "F":
        edge(1, 2, -1, -2)  # replaces the chain's simple edge
        edge(2, 3)
    elif fam == "G":
        edge(0, 1, -3, -1)  # first root short, highest root (3, 2)
    return tuple(tuple(row) for row in a)


@functools.lru_cache(maxsize=None)
def build_root_system(ct: CartanType) -> tuple[tuple[int, ...], ...]:
    """The positive roots of a simple type in simple-root coordinates.

    A non-simple positive root pairs positively with some simple coroot,
    and its reflection there is a positive root of smaller height
    (Humphreys, *Introduction to Lie Algebras and Representation Theory*,
    10.2).  So the positive roots are the closure of the simple roots under
    the raising reflections ``c -> c - k e_i`` with ``k = A[i] . c < 0``.
    The count is checked against the Lie-algebra dimension, which catches
    generation and Cartan-matrix bugs and also bounds the closure, so a
    wrong matrix cannot loop.  Roots come ordered by height (sum of
    coefficients), then lexicographically.

    Each root travels with its pairings ``w = A . c``, so a raising at
    ``w[i] = k < 0`` sets ``c[i] -= k`` and subtracts ``k`` times column
    ``i`` of the Cartan matrix from ``w``.
    """
    n = ct.rank
    expected = (ct.dim - n) // 2
    columns = tuple(zip(*cartan_matrix(ct)))
    frontier = [(tuple(int(i == j) for j in range(n)), columns[i]) for i in range(n)]
    seen = {c for c, _ in frontier}
    while frontier and len(seen) <= expected:
        c, w = frontier.pop()
        for i, k in enumerate(w):
            if k < 0:
                rt = c[:i] + (c[i] - k,) + c[i + 1 :]
                if rt not in seen:
                    seen.add(rt)
                    frontier.append((rt, tuple([x - k * y for x, y in zip(w, columns[i])])))

    assert len(seen) == expected, (
        f"BUG: {ct} produced {len(seen)} positive roots, expected {expected}"
    )
    return tuple(sorted(seen, key=lambda r: (sum(r), r)))


class ReductiveGroup(Frozen):
    """A connected reductive group: simple factors plus a central torus."""

    __slots__ = ("simple_factors", "central_rank")

    def __init__(
        self, simple_factors: tuple[CartanType, ...] = (), central_rank: int = 0
    ) -> None:
        central_rank = operator.index(central_rank)
        if central_rank < 0:
            raise ValueError("central rank must be nonnegative")
        set_slot(self, "simple_factors", tuple(simple_factors))
        set_slot(self, "central_rank", central_rank)

    @property
    def rank(self) -> int:
        return self.central_rank + sum(f.rank for f in self.simple_factors)

    @property
    def semisimple_rank(self) -> int:
        return sum(f.rank for f in self.simple_factors)

    @property
    def dim(self) -> int:
        return self.central_rank + sum(f.dim for f in self.simple_factors)

    def __str__(self) -> str:
        factors = "x".join(str(f) for f in self.simple_factors)
        if self.central_rank:
            return f"{factors}+z{self.central_rank}" if factors else f"+z{self.central_rank}"
        return factors


class HNType(Frozen):
    """A Harder-Narasimhan type: a cocharacter through its simple-root values.

    ``simple_values[k][i]`` is the pairing of the i-th simple root of the k-th
    factor against the cocharacter; ``central_degrees`` lists the degrees on
    the central torus.  Non-dominant vectors are representable (tests need
    them) but every criterion and stratification operation rejects them.
    A value that is not an integer raises ``TypeError``, never truncates.
    """

    __slots__ = ("simple_values", "central_degrees")

    def __init__(
        self,
        simple_values: tuple[tuple[int, ...], ...] = (),
        central_degrees: tuple[int, ...] = (),
    ) -> None:
        values = tuple(tuple(map(operator.index, v)) for v in simple_values)
        set_slot(self, "simple_values", values)
        set_slot(self, "central_degrees", tuple(map(operator.index, central_degrees)))

    @classmethod
    def from_flat(
        cls,
        group: ReductiveGroup,
        values: tuple[int, ...] | list[int],
        central_degrees: tuple[int, ...] | list[int] = (),
    ) -> "HNType":
        """Split a flat list of simple-root values along the factor ranks."""
        values = tuple(values)
        if len(values) != group.semisimple_rank:
            raise ValueError(
                f"expected {group.semisimple_rank} simple-root values, got {len(values)}"
            )
        split: list[tuple[int, ...]] = []
        k = 0
        for f in group.simple_factors:
            split.append(values[k : k + f.rank])
            k += f.rank
        return cls(tuple(split), tuple(central_degrees))

    @property
    def flat_values(self) -> tuple[int, ...]:
        return tuple(v for vec in self.simple_values for v in vec)


def check_shapes(group: ReductiveGroup, hn: HNType) -> None:
    """Raise ValueError unless the HN type has the group's shape."""
    if len(hn.simple_values) != len(group.simple_factors):
        raise ValueError(
            f"HN type has {len(hn.simple_values)} factors, group has "
            f"{len(group.simple_factors)}"
        )
    for k, (f, vec) in enumerate(zip(group.simple_factors, hn.simple_values)):
        if len(vec) != f.rank:
            raise ValueError(f"factor {k} ({f}): expected {f.rank} values, got {len(vec)}")
    if len(hn.central_degrees) != group.central_rank:
        raise ValueError(
            f"expected {group.central_rank} central degrees, got {len(hn.central_degrees)}"
        )


def _suffix_sums(vec: tuple[int, ...]) -> list[int]:
    """``vec[i] + ... + vec[-1]`` for each i, then a final 0."""
    return list(accumulate(reversed(vec), initial=0))[::-1]


def _differences(x: list[int]) -> list[int]:
    """``x_i - x_j`` over i < j."""
    return list(starmap(operator.sub, combinations(x, 2)))


def _sums(x: list[int], shift: int) -> list[int]:
    """``x_i + x_j + shift`` over i < j."""
    return [xi + xj + shift for xi, xj in combinations(x, 2)]


def _positive_values(ct: CartanType, vec: tuple[int, ...]) -> list[int]:
    """The pairings of the positive roots of one factor with ``vec``.

    The classical families need no roots (Bourbaki, *Lie Groups and Lie
    Algebras*, ch. VI, plates I-IV).  With the simple roots
    ``e_i - e_{i+1}`` and a last one (or two) as below, every positive
    root is ``e_i``, ``e_i - e_j`` or ``e_i + e_j`` for i < j, and the
    suffix sums of ``vec`` give the values of the ``e_i``, up to a shift:

    * A_n: x_i = v_i + ... + v_n and x_{n+1} = 0; values x_i - x_j.
    * B_n (last root e_n): the same x; values x_i - x_j (j = n + 1 gives
      the short roots e_i), then x_i + x_j for i < j <= n.
    * C_n (last root 2 e_n): s_i = v_i + ... + v_{n-1}, s_n = 0 and
      t = v_n; values s_i - s_j, s_i + s_j + t, then 2 s_i + t.
    * D_n (last roots e_{n-1} -/+ e_n): s_i = v_i + ... + v_{n-2},
      s_{n-1} = 0, a = v_{n-1} and b = v_n; values s_i - s_j,
      s_i + s_j + a + b, then s_i + a and s_i + b.

    E, F and G pair each root of ``build_root_system``.
    """
    fam = ct.family
    if fam == "A":
        return _differences(_suffix_sums(vec))
    if fam == "B":
        x = _suffix_sums(vec)
        return _differences(x) + _sums(x[:-1], 0)
    if fam == "C":
        s, t = _suffix_sums(vec[:-1]), vec[-1]
        return _differences(s) + _sums(s, t) + [2 * si + t for si in s]
    if fam == "D":
        s, a, b = _suffix_sums(vec[:-2]), vec[-2], vec[-1]
        ends = [si + a for si in s] + [si + b for si in s]
        return _differences(s) + _sums(s, a + b) + ends
    return [sum(map(operator.mul, root, vec)) for root in build_root_system(ct)]


def all_root_values(group: ReductiveGroup, hn: HNType) -> list[int]:
    """The multiset of pairings over the full root set of the group.

    Both signs are included, so the result has dim(G) - rank(G) entries and
    is symmetric under negation; the center contributes nothing.  Order:
    factor by factor, each positive root's value followed by its negative.
    Within a factor the positive roots come in the order of
    ``_positive_values``: formula by formula for the classical families,
    by height for E, F and G.
    """
    check_shapes(group, hn)
    out: list[int] = []
    for ct, vec in zip(group.simple_factors, hn.simple_values):
        positive = _positive_values(ct, vec)
        expected = (ct.dim - ct.rank) // 2
        assert len(positive) == expected, (
            f"BUG: {ct} gave {len(positive)} positive root values, expected {expected}"
        )
        signed = [0] * (2 * expected)
        signed[::2] = positive
        signed[1::2] = [-v for v in positive]
        out += signed
    return out


def is_dominant(group: ReductiveGroup, hn: HNType) -> bool:
    """True iff every simple-root value is nonnegative."""
    check_shapes(group, hn)
    return all(v >= 0 for vec in hn.simple_values for v in vec)


def require_dominant(group: ReductiveGroup, hn: HNType) -> None:
    if not is_dominant(group, hn):
        raise ValueError(f"HN type {hn.simple_values} is not dominant")


_FACTOR_RE = re.compile(r"([A-G])([0-9]+)")
_GROUP_RE = re.compile(r"^([A-G][0-9]+(?:x[A-G][0-9]+)*)?(?:\+z([0-9]+))?$")


def parse_group(text: str) -> ReductiveGroup:
    """Parse a compact group string such as ``A2``, ``C3xA1+z2`` or ``+z1``.

    Grammar: TYPE := FACTOR ("x" FACTOR)* ("+z" UINT)? | "+z" UINT with
    FACTOR := [ABCDEFG] UINT; a pure torus needs a positive rank.
    """
    m = _GROUP_RE.match(text.strip())
    factors_text, central_text = m.groups("") if m else ("", "")
    central = int(central_text or 0)
    if not (factors_text or central):
        raise ValueError(f"cannot parse group {text!r}")
    factors = tuple(
        CartanType(fam, int(rank)) for fam, rank in _FACTOR_RE.findall(factors_text)
    )
    return ReductiveGroup(factors, central)
