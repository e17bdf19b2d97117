import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from cohiggs import HomogPoly, PrimeField
from cohiggs.oracle import _charpoly, _kernel_head
from cohiggs.poly import _MR_BASES, _is_prime, gcd_many, random_nonzero_poly, random_poly, roots

F2 = PrimeField(2)
F5 = PrimeField(5)


def P(field, degree, *coeffs):
    return HomogPoly(field, degree, coeffs)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    assert PrimeField(7).name == "F7"


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_agrees_with_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


def test_primality_of_large_moduli():
    # the cited bound holds for the first 13 primes as bases, no others
    assert _MR_BASES == tuple(filter(_trial_division, range(42)))
    assert PrimeField(1000000000039).p == 1000000000039
    assert _is_prime(2**61 - 1)
    # 1000000007 * 1000000009, the Carmichael number 211 * 421 * 631 (a
    # Fermat test passes it at every base, as no factor is one), and the
    # least strong pseudoprime to the first 12 prime bases (caught by the 13th)
    for n in (1000000016000000063, 56052361, 318665857834031151167461):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)
    # from the least strong pseudoprime to all 13 bases on there is no
    # exact answer, so the modulus is refused rather than guessed
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(n)


def test_prime_field_arithmetic():
    assert HomogPoly(F5, 1, (7, -1)).coeffs == (2, 4)


def test_coefficients_must_be_integers():
    # non-integers are rejected, never truncated; plain ints are reduced
    with pytest.raises(TypeError):
        HomogPoly(F5, 0, (Fraction(1, 2),))
    with pytest.raises(TypeError):
        HomogPoly(F5, 0, (1.7,))
    assert HomogPoly(F5, 0, (-1,)).coeffs == (4,)
    assert HomogPoly(F5, 0, (12,)).coeffs == (2,)


def test_construction_validates_lengths_and_degree():
    with pytest.raises(ValueError):
        HomogPoly(F5, 2, (1, 2))
    for d in (0, 1):
        with pytest.raises(ValueError, match=f"degree {d} needs {d + 1} coefficients, got 0"):
            HomogPoly(F5, d, ())
    # a negative degree is a zero space: valid, with no coefficients
    assert HomogPoly(F5, -3, ()).coeffs == ()
    with pytest.raises(ValueError, match="degree -2 needs 0 coefficients, got 1"):
        HomogPoly(F5, -2, (0,))
    assert HomogPoly.zero(F5, 3).coeffs == (0, 0, 0, 0)
    assert HomogPoly.zero(F5).degree == -1
    assert HomogPoly.zero(F5, -4) == HomogPoly(F5, -4, ())


def test_zero_polynomial_any_degree():
    for d in (-4, -1, 0, 1, 5):
        assert HomogPoly.zero(F5, d).is_zero
        assert HomogPoly.zero(F5, d).degree == d
        assert HomogPoly.zero(F5, d).y_multiplicity == d + 1


def test_add_and_mul_track_degrees():
    f = P(F5, 1, 1, 2)      # x + 2y
    g = P(F5, 1, 3, 1)      # 3x + y
    assert (f + g).coeffs == (4, 3)
    h = f * g               # 3x^2 + 7xy + 2y^2 -> (3, 2, 2) mod 5
    assert h.degree == 2 and h.coeffs == (3, 2, 2)
    with pytest.raises(ValueError):
        f + P(F5, 2, 1, 0, 0)
    with pytest.raises(ValueError):
        f + P(F2, 1, 1, 0)


def test_negative_degree_zeros_keep_exact_degrees():
    cubic = P(F5, 3, 1, 0, 3, 2)
    quartic = P(F5, 4, 1, 1, 0, 0, 4)
    # products add degrees, negative ones included
    assert HomogPoly.zero(F5, -2) * cubic == HomogPoly.zero(F5, 1)
    assert HomogPoly.zero(F5, -2) * quartic == HomogPoly.zero(F5, 2)
    assert cubic * HomogPoly.zero(F5, -1) == HomogPoly.zero(F5, 2)
    assert HomogPoly.zero(F5, -3) * P(F5, 1, 1, 1) == HomogPoly.zero(F5, -2)
    # sums need equal degrees: a zero space's form is not neutral elsewhere
    with pytest.raises(ValueError, match="degrees -1 and 2"):
        HomogPoly.zero(F5) + P(F5, 2, 1, 0, 3)
    z = HomogPoly.zero(F5, -2)
    assert z + z == z
    assert str(z) == "0"


def test_gcd_basic():
    x2 = P(F5, 2, 1, 0, 0)
    xy = P(F5, 2, 0, 1, 0)
    y2 = P(F5, 2, 0, 0, 1)
    assert str(x2.gcd(xy)) == "x"
    assert x2.gcd(y2).is_constant()
    f = P(F5, 1, 1, 1)  # x + y
    a = f * P(F5, 1, 1, 2)
    b = f * P(F5, 1, 1, 3)
    assert a.gcd(b).coeffs == (1, 1)


def test_gcd_handles_y_powers():
    y = P(F5, 1, 0, 1)
    f = y * y * P(F5, 1, 1, 1)
    g = y * P(F5, 1, 1, 2)
    got = f.gcd(g)
    assert got.degree == 1 and got.coeffs == (0, 1)  # exactly y


def test_gcd_with_zero_and_monic_normalization():
    f = P(F5, 1, 2, 4)
    z = HomogPoly.zero(F5, 1)
    assert f.gcd(z).coeffs == (1, 2)
    assert z.gcd(f).coeffs == (1, 2)


def test_gcd_drops_scalar_factor():
    f = P(F5, 2, 1, 2, 1)    # (x + y)^2
    g = P(F5, 1, 2, 2)       # 2(x + y)
    assert f.gcd(g).coeffs == (1, 1)


def _nonzero_forms(field, degree):
    return [
        HomogPoly(field, degree, c)
        for c in itertools.product(range(field.p), repeat=degree + 1)
        if any(c)
    ]


@pytest.mark.parametrize("p,top", [(2, 4), (3, 3), (5, 2)])
def test_gcd_is_the_monic_common_divisor_of_largest_degree(p, top):
    # every pair of nonzero forms of degree <= top: the gcd must be the one
    # monic common divisor of largest degree, read off a table of products
    # q * h with q monic (first nonzero coefficient 1)
    field = PrimeField(p)
    forms = [f for d in range(top + 1) for f in _nonzero_forms(field, d)]
    divisors = defaultdict(set)
    for q in forms:
        if next(c for c in q.coeffs if c) == 1:
            for h in forms:
                if q.degree + h.degree <= top:
                    divisors[q * h].add(q)
    for f in forms:
        for g in forms:
            common = divisors[f] & divisors[g]
            largest = max(q.degree for q in common)
            assert [q for q in common if q.degree == largest] == [f.gcd(g)], (f, g)
    # zero forms between nonzero ones act neutrally
    for f, g in zip(forms[::7], forms[::-11]):
        zero = HomogPoly.zero(field, g.degree)
        assert gcd_many([zero, f, HomogPoly.zero(field), g, zero]) == f.gcd(g)


def test_gcd_many_detects_coprimality():
    const = P(F5, 0, 2)
    x2 = P(F5, 2, 1, 0, 0)
    assert gcd_many([const, x2]).is_constant()
    assert gcd_many([HomogPoly.zero(F5), x2]).coeffs == (1, 0, 0)
    assert gcd_many([HomogPoly.zero(F5, 2)]) is None



def _singular_shifts(m, p):
    # the t in 0..p-1 for which m - t I has a nonzero kernel, by elimination
    r = len(m)
    return [
        t for t in range(p)
        if _kernel_head([[m[i][j] - t * (i == j) for j in range(r)] for i in range(r)], p)
        is not None
    ]


def test_roots_of_every_2x2_charpoly_are_the_singular_shifts():
    # the eigenvalues the oracle starts from; a faster root finder must
    # return the same list
    counts = set()
    for p in (2, 3, 5, 7):
        for a, b, c, d in itertools.product(range(p), repeat=4):
            m = [[a, b], [c, d]]
            found = roots(_charpoly(m), p)
            assert found == _singular_shifts(m, p), (m, p)
            counts.add(len(found))
    assert counts == {0, 1, 2}


def test_roots_of_seeded_3x3_charpolys_are_the_singular_shifts():
    rng = random.Random("roots:3x3")
    primes = [p for p in range(11, 102) if _is_prime(p)]
    counts = set()
    for k in range(300):
        p = primes[k % len(primes)]
        m = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        found = roots(_charpoly(m), p)
        assert found == _singular_shifts(m, p), (m, p)
        counts.add(len(found))
    assert counts == {0, 1, 2, 3}

def test_string_rendering():
    assert str(P(F5, 2, 3, 1, 4)) == "3*x^2 + x*y + 4*y^2"
    assert str(P(F5, 0, 2)) == "2"
    assert str(HomogPoly.zero(F5, 2)) == "0"
    assert str(P(F5, 1, 1, 0)) == "x"


def test_random_polys_deterministic_per_seed():
    a = random_poly(F5, 3, random.Random("k:1"))
    b = random_poly(F5, 3, random.Random("k:1"))
    assert a.coeffs == b.coeffs
    assert not random_nonzero_poly(F2, 0, random.Random(0)).is_zero
    with pytest.raises(ValueError):
        random_nonzero_poly(F5, -1, random.Random(0))


def test_random_poly_draws_randrange_stream():
    # the coefficients are randrange(p)'s, and the generator is left where
    # randrange leaves it, so every later draw agrees too; at p = 2 the
    # bit length draws 2 bits and rejects half of the draws
    for p in (2, 3, 5, 7, 13, 101, 1000003, 2**61 - 1):
        field = PrimeField(p)
        for degree in range(-3, 41):
            rng, ref = random.Random(f"draw:{p}:{degree}"), random.Random(f"draw:{p}:{degree}")
            form = random_poly(field, degree, rng)
            assert form.degree == degree
            assert list(form.coeffs) == [ref.randrange(p) for _ in range(degree + 1)], (p, degree)
            assert rng.getstate() == ref.getstate(), (p, degree)


def test_random_nonzero_poly_draws_randrange_stream():
    # redrawn whole while zero: at p = 2 and degree 0, half the forms are
    for p in (2, 3, 5):
        field = PrimeField(p)
        for degree, seed in itertools.product(range(3), range(40)):
            rng, ref = random.Random(seed), random.Random(seed)
            coeffs = [0]
            while not any(coeffs):
                coeffs = [ref.randrange(p) for _ in range(degree + 1)]
            assert list(random_nonzero_poly(field, degree, rng).coeffs) == coeffs
            assert rng.getstate() == ref.getstate(), (p, degree, seed)
