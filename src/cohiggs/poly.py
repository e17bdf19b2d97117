"""Exact homogeneous polynomial arithmetic in two variables over GF(p).

Sections of a degree-d line bundle on the projective line are homogeneous
forms of degree d in x and y.  A form is stored as the coefficient tuple
(c_0, ..., c_d) against the basis x^d, x^(d-1) y, ..., y^d, with
coefficients in a prime field GF(p) held as integers in [0, p).

A form's degree is always its space's degree.  A bundle of negative degree
d has only the zero section, the degree-d form with no coefficients;
``HomogPoly.zero(field, d)`` is the zero form of every degree d.  Sums take
forms of equal degree and products add degrees, negative ones included.

The gcd of two binary forms is computed exactly: split off the common power
of y, run the Euclidean algorithm on the dehomogenizations at y = 1, and
rehomogenize; the result is normalized monic.  Forms are coprime exactly
when they share no zero on the projective line over the algebraic closure,
which is the saturation test for line subbundles.  Univariate lists, for
Horner, the root scan and the gcd, lead with the top coefficient.
"""

import operator
import random
from collections.abc import Iterable, Sequence
from itertools import dropwhile

from .frozen import Frozen, set_slot


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ``ValueError`` at or above ``_MR_LIMIT``,
    where no exact answer is available."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large for an exact primality test")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Frozen):
    """The field with p elements, p prime; elements are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        p = operator.index(p)
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        set_slot(self, "p", p)

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def __str__(self) -> str:
        return self.name


class HomogPoly(Frozen):
    """A homogeneous form in two variables over a prime field.

    ``coeffs`` has length ``degree + 1`` (empty at every negative degree),
    entry k multiplying x^(degree-k) y^k.  The constructor reduces every
    coefficient mod p, so arithmetic may hand it unreduced integers; a
    degree or coefficient that is not an integer raises ``TypeError``.
    """

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field: PrimeField, degree: int, coeffs: tuple) -> None:
        degree = operator.index(degree)
        p = field.p
        coeffs = tuple([operator.index(c) % p for c in coeffs])
        # a negative degree has no coefficients, not degree + 1 of them
        if len(coeffs) != degree + 1 and (coeffs or degree >= 0):
            raise ValueError(
                f"degree {degree} needs {max(degree + 1, 0)} "
                f"coefficients, got {len(coeffs)}"
            )
        set_slot(self, "field", field)
        set_slot(self, "degree", degree)
        set_slot(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, field: PrimeField, degree: int = -1) -> "HomogPoly":
        return cls(field, degree, (0,) * (degree + 1))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_field(other)
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        return HomogPoly(
            self.field,
            self.degree,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_field(other)
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return HomogPoly(self.field, self.degree + other.degree, tuple(out))

    def _check_field(self, other: "HomogPoly") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError(f"mixed fields {self.field} and {other.field}")

    @property
    def y_multiplicity(self) -> int:
        """Largest k with y^k dividing the form; degree + 1 for zero."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return self.degree + 1

    def is_constant(self) -> bool:
        """Nonzero of degree 0."""
        return self.degree == 0 and not self.is_zero

    def gcd(self, other: "HomogPoly") -> "HomogPoly":
        """Monic gcd as binary forms; zero arguments act neutrally."""
        self._check_field(other)
        if self.is_zero:
            return other._monic()
        if other.is_zero:
            return self._monic()
        ys = min(self.y_multiplicity, other.y_multiplicity)
        coeffs = (0,) * ys + tuple(_univariate_gcd(self.field.p, self.coeffs, other.coeffs))
        return HomogPoly(self.field, len(coeffs) - 1, coeffs)

    def _monic(self) -> "HomogPoly":
        if self.is_zero:
            return self
        p = self.field.p
        inv_lead = pow(next(c for c in self.coeffs if c), p - 2, p)
        return HomogPoly(self.field, self.degree, tuple(c * inv_lead for c in self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        d = self.degree
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            xs = f"x^{d - k}" if d - k > 1 else ("x" if d - k == 1 else "")
            ys = f"y^{k}" if k > 1 else ("y" if k == 1 else "")
            mono = "*".join(t for t in (xs, ys) if t)
            if not mono:
                terms.append(str(c))
            elif c == 1:
                terms.append(mono)
            else:
                terms.append(f"{c}*{mono}")
        return " + ".join(terms)


def horner(coeffs: Sequence[int], t: int, p: int) -> int:
    """The value mod p at t of ``coeffs``, top coefficient first, reduced at
    every step: unreduced, a form of high degree costs its degree squared."""
    acc = 0
    for k in coeffs:
        acc = (acc * t + k) % p
    return acc


def roots(coeffs: Sequence[int], p: int) -> list[int]:
    """The roots in GF(p) of ``coeffs``, top coefficient first, in increasing
    order, by trying every t.  Each value is reduced once: a characteristic
    polynomial has at most 4 coefficients, and reducing at every step, as
    ``horner`` does, made the scan at p = 1000003 about 40% slower."""
    found = []
    for t in range(p):
        acc = 0
        for k in coeffs:
            acc = acc * t + k
        if acc % p == 0:
            found.append(t)
    return found


def _univariate_gcd(p: int, a: Sequence[int], b: Sequence[int]) -> list:
    """Monic Euclidean gcd over GF(p) of univariate coefficient lists, top
    coefficient first; leading zeros are dropped, and two zero lists give
    the empty list."""

    def trim(u: Iterable[int]) -> list:
        return list(dropwhile(operator.not_, u))

    a, b = trim(c % p for c in a), trim(c % p for c in b)
    while b:
        inv_lead = pow(b[0], p - 2, p)
        while len(a) >= len(b):
            # cancel a's top term against b; a[0] becomes zero and drops
            factor = a[0] * inv_lead
            for k in range(1, len(b)):
                a[k] = (a[k] - factor * b[k]) % p
            a = trim(a[1:])
        a, b = b, a
    inv_lead = pow(a[0], p - 2, p) if a else 0
    return [c * inv_lead % p for c in a]


def gcd_many(polys: Iterable[HomogPoly]) -> HomogPoly | None:
    """Monic gcd of the nonzero entries; None when all are zero."""
    acc: HomogPoly | None = None
    for p in polys:
        if p.is_zero:
            continue
        acc = p._monic() if acc is None else acc.gcd(p)
        if acc.is_constant():
            return acc
    return acc


def random_poly(field: PrimeField, degree: int, rng: random.Random) -> HomogPoly:
    """A form with coefficients drawn uniformly (none in negative degree).

    Each coefficient is drawn as ``random.Random.randrange(p)`` draws it:
    ``getrandbits(k)`` with k the bit length of p, drawn again while it is
    p or more.  So the stream, and every seeded form, is ``randrange``'s,
    without the argument checks ``randrange`` makes on every call.
    """
    p = field.p
    k = p.bit_length()
    getrandbits = rng.getrandbits
    coeffs = []
    for _ in range(degree + 1):
        c = getrandbits(k)
        while c >= p:
            c = getrandbits(k)
        coeffs.append(c)
    return HomogPoly(field, degree, coeffs)


def random_nonzero_poly(field: PrimeField, degree: int, rng: random.Random) -> HomogPoly:
    """A nonzero form of a nonnegative degree, by rejection."""
    if degree < 0:
        raise ValueError("no nonzero forms in negative degree")
    while True:
        p = random_poly(field, degree, rng)
        if not p.is_zero:
            return p
