"""PGL_2 = SO(3) through the adjoint representation, checked by the oracle.

A trace-free GL_2 field phi = [[alpha, beta], [gamma, -alpha]] on the
splitting (a, 0) acts on its trace-free endomorphisms by ad phi = [phi, .],
a 3 x 3 field on O(a) + O + O(-a).  In the basis e, h, f its rows are
(2 alpha, -2 beta, 0), (-gamma, 0, beta) and (0, 2 gamma, -2 alpha).  In
characteristic 0 the adjoint representation maps semistable bundles to
semistable ones, and a phi-invariant destabilizing line gives an ad
phi-invariant subbundle of positive degree, so the semistable verdicts on
phi and on ad phi agree.  Over F_p the oracle must find the same for p
odd; p = 2 is skipped, since there the factors 2 of ad phi vanish.
"""

import itertools
import random

import pytest

from cohiggs import (
    CoHiggsMatrix,
    HNType,
    HomogPoly,
    PrimeField,
    SplittingType,
    adjoint_splitting,
    parse_group,
    semistability_oracle,
)
from reference import hom_degree

A1 = parse_group("A1")


def adjoint_pair(a, field, alpha, beta, gamma):
    """phi on (a, 0) and ad phi on ``adjoint_splitting`` of A1 with value a,
    from the coefficient tuples of alpha, beta and gamma."""
    st = SplittingType((a, 0))
    ad = adjoint_splitting(A1, HNType(((a,),)))
    assert ad == SplittingType((a, 0, -a))

    def grid(splitting, layout):
        # layout entry (coeffs, k) is k times the form with coeffs; k = 0 is zero
        def form(i, j, coeffs, k):
            d = hom_degree(splitting, i, j)
            return HomogPoly(field, d, [k * c for c in coeffs]) if k else HomogPoly.zero(field, d)

        return CoHiggsMatrix(splitting, field, tuple(
            tuple(form(i, j, *cell) for j, cell in enumerate(row)) for i, row in enumerate(layout)
        ))

    zero = ((), 0)
    phi = grid(st, (((alpha, 1), (beta, 1)), ((gamma, 1), (alpha, -1))))
    ad_phi = grid(ad, (
        ((alpha, 2), (beta, -2), zero),
        ((gamma, -1), zero, (beta, 1)),
        (zero, (gamma, 2), (alpha, -2)),
    ))
    return phi, ad_phi


def _sizes(a):
    # coefficient counts of alpha, beta and gamma: degrees 2, a + 2 and 2 - a
    return 3, a + 3, max(3 - a, 0)


def _every_field(a, p):
    n_alpha, n_beta, n_gamma = _sizes(a)
    for coeffs in itertools.product(range(p), repeat=n_alpha + n_beta + n_gamma):
        yield coeffs[:n_alpha], coeffs[n_alpha : n_alpha + n_beta], coeffs[n_alpha + n_beta :]


def _seeded_fields(a, p, count, rng):
    for _ in range(count):
        yield tuple(tuple(rng.randrange(p) for _ in range(n)) for n in _sizes(a))


def _check(a, p, fields):
    field = PrimeField(p)
    disagreements, stable = [], 0
    for alpha, beta, gamma in fields:
        phi, ad_phi = adjoint_pair(a, field, alpha, beta, gamma)
        semistable = semistability_oracle(ad_phi, "semistable").passes
        if semistability_oracle(phi, "semistable").passes != semistable:
            disagreements.append((alpha, beta, gamma))
        if semistability_oracle(phi, "stable").passes:
            stable += 1
            # phi stable implies ad phi semistable
            if not semistable:
                disagreements.append((alpha, beta, gamma, "stable"))
    return disagreements, stable


def test_adjoint_pair_shape():
    # column k of ad phi is the commutator of phi with e, h, f in turn, in
    # the basis e, h, f: pinned on one field at F5, a = 1
    phi, ad_phi = adjoint_pair(1, PrimeField(5), (1, 2, 3), (0, 1, 0, 4), (2, 3))
    assert [[e.coeffs for e in row] for row in phi.entries] == [
        [(1, 2, 3), (0, 1, 0, 4)],
        [(2, 3), (4, 3, 2)],
    ]
    assert [[e.coeffs for e in row] for row in ad_phi.entries] == [
        [(2, 4, 1), (0, 3, 0, 2), (0,) * 5],
        [(3, 2), (0, 0, 0), (0, 1, 0, 4)],
        [(0,), (4, 1), (3, 1, 4)],
    ]


@pytest.mark.parametrize("a", [0, 2])
def test_adjoint_verdicts_agree_on_every_field_over_f3(a):
    disagreements, stable = _check(a, 3, _every_field(a, 3))
    assert not disagreements
    assert stable


def test_adjoint_verdicts_agree_on_seeded_fields():
    rng = random.Random("adjoint")
    # a = 1 over F3, then gaps up to 4 from F5 to F101
    cases = [(1, 3, 1500)] + [(a, p, 30) for a in range(5) for p in (5, 7, 11, 13, 31, 101)]
    for a, p, count in cases:
        disagreements, _ = _check(a, p, _seeded_fields(a, p, count, rng))
        assert not disagreements, (a, p, disagreements[:3])
