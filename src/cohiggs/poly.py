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
which is the saturation test for line subbundles.
"""

from __future__ import annotations

import operator
import random
from collections.abc import Iterable

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

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.name}")
        return pow(a, self.p - 2, self.p)

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

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.field, self.degree, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_field(other)
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return HomogPoly(self.field, self.degree + other.degree, tuple(out))

    def scale(self, c) -> "HomogPoly":
        c = operator.index(c)
        return HomogPoly(self.field, self.degree, tuple(c * a for a in self.coeffs))

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
        core = _univariate_gcd(self.field, self._dehomogenize(), other._dehomogenize())
        coeffs = (0,) * ys + tuple(reversed(core))
        return HomogPoly(self.field, len(coeffs) - 1, coeffs)

    def _monic(self) -> "HomogPoly":
        if self.is_zero:
            return self
        lead = next(c for c in self.coeffs if c)
        return self.scale(self.field.inv(lead))

    def _dehomogenize(self) -> list:
        """Coefficients of f(x, 1) in increasing powers of x, trimmed."""
        low_to_high = list(reversed(self.coeffs))
        while low_to_high and not low_to_high[-1]:
            low_to_high.pop()
        return low_to_high

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


def _univariate_gcd(field: PrimeField, a: list, b: list) -> list:
    """Euclidean gcd of univariate coefficient lists (increasing powers)."""
    p = field.p

    def trim(u: list) -> list:
        while u and not u[-1]:
            u.pop()
        return u

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv_lead = field.inv(b[-1])
        while len(a) >= len(b):
            shift = len(a) - len(b)
            factor = a[-1] * inv_lead
            for k in range(len(b)):
                a[shift + k] = (a[shift + k] - factor * b[k]) % p
            trim(a)
            if not a:
                break
        a, b = b, a
    inv_lead = field.inv(a[-1])
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
    """A form with coefficients drawn uniformly (none in negative degree)."""
    coeffs = tuple(rng.randrange(field.p) for _ in range(degree + 1))
    return HomogPoly(field, degree, coeffs)


def random_nonzero_poly(field: PrimeField, degree: int, rng: random.Random) -> HomogPoly:
    """A nonzero form of a nonnegative degree, by rejection."""
    if degree < 0:
        raise ValueError("no nonzero forms in negative degree")
    while True:
        p = random_poly(field, degree, rng)
        if not p.is_zero:
            return p
