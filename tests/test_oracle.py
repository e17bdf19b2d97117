import functools
import hashlib
import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from cohiggs import (
    CoHiggsMatrix,
    HomogPoly,
    OracleVerdict,
    OracleWitness,
    PrimeField,
    SplittingType,
    build_model_field,
    random_field,
    semistability_oracle,
)
from cohiggs import oracle
from cohiggs.frozen import set_slot
from cohiggs.oracle import (
    LineSubbundle,
    _eigen_forms, _kernel_head, _slope_text, _top_invariant_line, _violation_threshold,
    apply_field, enumerate_line_subbundles, is_invariant, splitting_verdict,
)
from cohiggs.poly import horner, random_poly
from reference import (
    enumerate_all_fields,
    enumerate_splitting_types,
    glr_admits_semistable,
    hom_degree,
    zero_field,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def line(st, field, degree, *sections):
    polys = [HomogPoly(field, m - degree, c) for m, c in zip(st.degrees, sections)]
    return LineSubbundle(st, field, degree, polys)


# ---------------------------------------------------------------- matrices

def test_matrix_validates_entry_degrees():
    st = SplittingType((1, -1))
    good = zero_field(st, F5)
    assert good.entries[0][1].degree == 4
    rows = [list(r) for r in good.entries]
    rows[0][0] = HomogPoly(F5, 3, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        CoHiggsMatrix(st, F5, tuple(map(tuple, rows)))


def test_matrix_rejects_entries_in_zero_spaces():
    st = SplittingType((3, 0))
    rows = [list(r) for r in zero_field(st, F5).entries]
    rows[1][0] = HomogPoly(F5, 0, (1,))
    with pytest.raises(ValueError):
        CoHiggsMatrix(st, F5, tuple(map(tuple, rows)))
    # a zero form of nonnegative degree has coefficients, which a zero
    # space has none of: its JSON would list them
    rows[1][0] = HomogPoly.zero(F5, 2)
    with pytest.raises(ValueError, match=r"entry \(1, 0\) must vanish"):
        CoHiggsMatrix(st, F5, tuple(map(tuple, rows)))


def test_matrix_rejects_degree_minus_one_zero_in_nonnegative_slot():
    # one accepted form per slot: a degree-2 slot takes the zero quadric only
    st = SplittingType((0, 0))
    rows = [list(r) for r in zero_field(st, F5).entries]
    rows[0][1] = HomogPoly.zero(F5)
    with pytest.raises(ValueError, match=r"entry \(0, 1\) has degree -1, expected 2"):
        CoHiggsMatrix(st, F5, tuple(map(tuple, rows)))


def test_matrix_stores_zero_of_the_slot_degree():
    # any form without coefficients fills a zero space, stored at its degree
    st = SplittingType((2, -2))
    rows = [list(r) for r in zero_field(st, F5).entries]
    rows[1][0] = HomogPoly.zero(F5)
    phi = CoHiggsMatrix(st, F5, tuple(map(tuple, rows)))
    assert phi.entries[1][0].degree == -2
    assert phi == zero_field(st, F5)
    assert phi.to_json_dict() == zero_field(st, F5).to_json_dict()


def test_matrix_keeps_exact_forms_and_stores_slot_degree_zeros():
    # built as the benchmark's sweep builds its fields: one form per entry
    # from its coefficients alone, so every slot of negative degree gets the
    # degree -1 zero, here also the degree -4 slot (2, 0) of gaps (3, 3)
    st = SplittingType((3, 0, -3))
    rng = random.Random(7)
    rows = [
        [HomogPoly(F3, len(c) - 1, c) for c in ([rng.randrange(3) for _ in range(i - j + 3)]
                                                for j in st.degrees)]
        for i in st.degrees
    ]
    assert rows[2][0].degree == -1 and hom_degree(st, 2, 0) == -4
    phi = CoHiggsMatrix(st, F3, rows)
    for i in range(3):
        for j in range(3):
            stored, want = phi.entries[i][j], hom_degree(st, i, j)
            assert stored.degree == want
            if rows[i][j].degree == want:
                assert stored is rows[i][j]
    exact = [
        [p if p.degree == hom_degree(st, i, j) else HomogPoly.zero(F3, hom_degree(st, i, j))
         for j, p in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    assert phi == CoHiggsMatrix(st, F3, exact)


def test_matrix_accepts_and_refuses_as_check_form_does():
    # the fast accept path takes a form over the matrix's own field object
    # with the slot's degree; every other form goes through _check_form
    st = SplittingType((5, 0))  # slot degrees [[2, 7], [-3, 2]]
    also_f5 = PrimeField(5)
    assert also_f5 == F5 and also_f5 is not F5
    rng = random.Random(3)
    rows = [[random_poly(also_f5, 2, rng), random_poly(also_f5, 7, rng)],
            [HomogPoly.zero(also_f5, -3), random_poly(also_f5, 2, rng)]]
    phi = CoHiggsMatrix(st, F5, rows)  # an equal field is accepted, form by form
    assert phi.field is F5
    assert all(phi.entries[i][j] is rows[i][j] for i in range(2) for j in range(2))
    assert phi == CoHiggsMatrix(st, also_f5, rows)

    def refusal(i, j, form):
        bad = [row[:] for row in rows]
        bad[i][j] = form
        with pytest.raises(ValueError) as info:
            CoHiggsMatrix(st, F5, bad)
        return str(info.value)

    assert refusal(0, 0, HomogPoly(F5, 3, (1, 0, 0, 0))) == "entry (0, 0) has degree 3, expected 2"
    assert refusal(1, 1, random_poly(PrimeField(7), 2, rng)) == "entry (1, 1) is over F7, expected F5"
    assert refusal(1, 0, HomogPoly(F5, 0, (1,))) == (
        "entry (1, 0) must vanish: its space has degree -3")
    # a coefficient-less zero of another negative degree becomes the slot's zero
    rows[1][0] = HomogPoly.zero(F5)
    stored = CoHiggsMatrix(st, F5, rows).entries[1][0]
    assert stored == HomogPoly.zero(F5, -3) and stored.field is F5


def test_transpose_dual_is_an_involution_on_seeded_fields():
    for degrees in [(0,), (1, 0), (2, 0), (3, 0), (1, 1, 0), (2, 1, -1), (0, 0, -2), (4, 2, 0)]:
        st = SplittingType(degrees)
        for field, seed in itertools.product((F2, F5, PrimeField(13)), range(3)):
            phi = random_field(st, field, seed)
            assert phi.transpose_dual().transpose_dual() == phi
            assert phi.transpose_dual().splitting == st.dual()


def test_matrix_rejects_entries_over_another_field():
    st = SplittingType((1, -1))
    entries = build_model_field(st, PrimeField(7)).entries
    with pytest.raises(ValueError, match="F7.*F5"):
        CoHiggsMatrix(st, F5, entries)


def test_matrix_rejects_a_short_row():
    # r rows, one of them short: the grid must be r by r for every r
    for r in (2, 3):
        st = SplittingType((0,) * r)
        rows = [list(row) for row in zero_field(st, F5).entries]
        rows[-1].pop()
        with pytest.raises(ValueError, match=f"^expected {r} rows of {r} entries$"):
            CoHiggsMatrix(st, F5, tuple(map(tuple, rows)))
    with pytest.raises(ValueError, match="^expected 2 rows of 2 entries$"):
        CoHiggsMatrix(SplittingType((0, 0)), F5, zero_field(SplittingType((0, 0, 0)), F5).entries)


def test_equal_but_distinct_fields_are_accepted():
    # fields compare by value: forms over another PrimeField(5) object fit
    twin = PrimeField(5)
    assert twin is not F5 and twin == F5
    st = SplittingType((1, -1))
    phi = build_model_field(st, twin, seed=3)
    assert CoHiggsMatrix(st, F5, phi.entries) == phi
    assert line(st, twin, 0, (1, 0), ()) == line(st, F5, 0, (1, 0), ())
    a, b = HomogPoly(F5, 1, (1, 2)), HomogPoly(twin, 1, (3, 4))
    assert a + b == HomogPoly(F5, 1, (4, 1))
    assert a * b == HomogPoly(F5, 2, (3, 10, 8))


def test_model_field_shape():
    phi = build_model_field(SplittingType((1, -1)), F5, seed=3)
    nonzero = [
        (i, j)
        for i in range(2)
        for j in range(2)
        if not phi.entries[i][j].is_zero
    ]
    assert nonzero == [(1, 0)]
    assert phi.entries[1][0].degree == 0

    phi = build_model_field(SplittingType((0, 0)), F5, seed=3)
    assert phi.entries[1][0].degree == 2
    assert not phi.entries[1][0].is_zero


def test_model_field_requires_small_gaps():
    with pytest.raises(ValueError):
        build_model_field(SplittingType((3, 0)), F5)


def test_model_and_random_fields_deterministic():
    st = SplittingType((1, 0, -1))
    assert build_model_field(st, F5, 9).entries == build_model_field(st, F5, 9).entries
    assert random_field(st, F5, 9).entries == random_field(st, F5, 9).entries
    assert random_field(st, F5, 9).entries != random_field(st, F5, 10).entries


def test_fields_default_to_seed_zero():
    # the CLI's --seed defaults to 0 as well; both must name the same field
    st = SplittingType((1, 0, -1))
    assert build_model_field(st, F5) == build_model_field(st, F5, 0) != build_model_field(st, F5, 1)
    assert random_field(st, F5) == random_field(st, F5, 0) != random_field(st, F5, 1)


def test_random_field_respects_forced_zeros():
    st = SplittingType((3, 0))
    for seed in range(5):
        phi = random_field(st, F2, seed)
        assert phi.entries[1][0].is_zero


def test_random_field_degree_grid():
    phi = random_field(SplittingType((1, -1)), F5, seed=1)
    degrees = [[phi.entries[i][j].degree for j in range(2)] for i in range(2)]
    assert degrees == [[2, 4], [0, 2]]


def test_random_field_rank_one_is_single_degree_two_form():
    phi = random_field(SplittingType((0,)), F5, seed=2)
    assert phi.rank == 1
    assert phi.entries[0][0].degree == 2


# ------------------------------------------------------------ application

def test_apply_zero_field():
    st = SplittingType((1, -1))
    L = line(st, F5, 1, (1,), ())
    out = apply_field(zero_field(st, F5), L)
    assert all(p.is_zero for p in out)


def test_apply_scalar_diagonal_field():
    st = SplittingType((0, 0))
    q = HomogPoly(F5, 2, (1, 2, 3))
    z4 = HomogPoly.zero(F5, 2)
    phi = CoHiggsMatrix(st, F5, ((q, z4), (z4, q)))
    L = line(st, F5, 0, (2,), (3,))
    out = apply_field(phi, L)
    assert out[0].coeffs == HomogPoly(F5, 2, [2 * c for c in q.coeffs]).coeffs
    assert out[1].coeffs == HomogPoly(F5, 2, [3 * c for c in q.coeffs]).coeffs


def test_apply_model_field_shifts_down():
    st = SplittingType((1, -1))
    phi = build_model_field(st, F5, seed=1)
    s = phi.entries[1][0]
    L = line(st, F5, 1, (1,), ())
    out = apply_field(phi, L)
    assert out[0].is_zero
    assert out[1].coeffs == s.coeffs


def test_apply_field_checks_splitting():
    phi = zero_field(SplittingType((0, 0)), F5)
    L = line(SplittingType((1, -1)), F5, 1, (1,), ())
    with pytest.raises(ValueError):
        apply_field(phi, L)


# ------------------------------------------------------------- invariance

def test_zero_field_leaves_everything_invariant():
    st = SplittingType((1, -1))
    phi = zero_field(st, F5)
    for d in (0, 1):
        for L in enumerate_line_subbundles(st, d, F5):
            assert is_invariant(phi, L)


def test_forced_zero_makes_top_summand_invariant():
    st = SplittingType((3, 0))
    L = line(st, F2, 3, (1,), ())
    for seed in range(4):
        assert is_invariant(random_field(st, F2, seed), L)


def test_model_field_does_not_preserve_top_summand():
    st = SplittingType((1, -1))
    phi = build_model_field(st, F5, seed=1)
    L = line(st, F5, 1, (1,), ())
    assert not is_invariant(phi, L)


def test_invariance_is_scale_invariant():
    st = SplittingType((1, 0, -1))
    for seed in range(6):
        phi = random_field(st, F5, seed)
        for d in (0, 1):
            for L in enumerate_line_subbundles(st, d, F5):
                verdict = is_invariant(phi, L)
                for c in (2, 3, 4):
                    sections = [HomogPoly(F5, p.degree, [c * a for a in p.coeffs])
                                for p in L.sections]
                    assert is_invariant(phi, LineSubbundle(st, F5, d, sections)) == verdict


# ------------------------------------------------------------ enumeration

def test_enumeration_counts():
    assert sum(1 for _ in enumerate_line_subbundles(SplittingType((1, -1)), 1, F2)) == 1
    assert sum(1 for _ in enumerate_line_subbundles(SplittingType((0, 0)), 0, F2)) == 3
    assert sum(1 for _ in enumerate_line_subbundles(SplittingType((0, 0)), 0, F3)) == 4
    assert list(enumerate_line_subbundles(SplittingType((1, -1)), 2, F2)) == []


def test_enumeration_drops_unsaturated_tuples():
    # a section into the top summand alone vanishes somewhere unless constant
    assert list(enumerate_line_subbundles(SplittingType((1, -1)), 0, F2)) == []
    # a nonzero constant slot makes any tuple saturated: 4 of the 7 classes
    assert (
        sum(1 for _ in enumerate_line_subbundles(SplittingType((1, 0)), 0, F2)) == 4
    )


def test_enumeration_normalizes_first_nonzero_coefficient():
    for L in enumerate_line_subbundles(SplittingType((1, 0, -1)), 0, F5):
        flat = [c for p in L.sections for c in p.coeffs]
        lead = next(c for c in flat if c != 0)
        assert lead == 1


def test_enumeration_stream_pinned():
    # every line the reference enumerator yields on six splittings over F2
    # and F3, from the top degree down to the bottom summand's, in order
    digest = hashlib.sha256()
    count = 0
    for degrees in ((1, 0), (1, -1), (2, 0), (2, -1), (1, 0, -1), (1, 1, 0)):
        st = SplittingType(degrees)
        for p in (2, 3):
            for d in range(degrees[0], degrees[-1] - 1, -1):
                for L in enumerate_line_subbundles(st, d, PrimeField(p)):
                    digest.update(repr((degrees, p, d, list(map(str, L.sections)))).encode())
                    count += 1
    assert count == 696
    assert digest.hexdigest() == (
        "4e6e27bdf2790f621069b54f9521fe6fd26bee6a55a47a85942b62f4d74d64ec"
    )


def test_line_subbundle_is_a_frozen_value():
    st = SplittingType((1, 0, -1))
    first, second = (list(enumerate_line_subbundles(st, 0, F3)) for _ in range(2))
    assert first == second and first[0] is not second[0]
    assert [hash(L) for L in first] == [hash(L) for L in second]
    L = first[0]
    with pytest.raises(AttributeError):
        L.degree = 7
    assert L.degree == 0
    assert pickle.loads(pickle.dumps(L)) == L
    # a pickle goes back through the checking constructor, so one of an
    # all-zero tuple, built here without that constructor, fails to load
    forged = object.__new__(LineSubbundle)
    zeros = tuple(HomogPoly.zero(F3, m) for m in st.degrees)
    for name, value in zip(LineSubbundle.__slots__, (st, F3, 0, zeros)):
        set_slot(forged, name, value)
    with pytest.raises(ValueError, match="zero tuple"):
        pickle.loads(pickle.dumps(forged))


def test_subbundle_validation():
    st = SplittingType((1, -1))
    with pytest.raises(ValueError):
        LineSubbundle(st, F5, 1, (HomogPoly.zero(F5), HomogPoly.zero(F5)))
    with pytest.raises(ValueError):
        LineSubbundle(st, F5, 1, (HomogPoly(F5, 2, (1, 0, 0)), HomogPoly.zero(F5)))
    with pytest.raises(ValueError, match="F3.*F5"):
        LineSubbundle(st, F5, 1, (HomogPoly(F3, 0, (1,)), HomogPoly.zero(F5)))
    # a section in a zero space takes no coefficients, so not a zero form
    # of degree 4, which apply_field could not add to the other entries
    with pytest.raises(ValueError, match="section 1 must vanish"):
        LineSubbundle(SplittingType((1, 0)), F5, 1,
                      (HomogPoly(F5, 0, (1,)), HomogPoly.zero(F5, 4)))


def test_subbundle_rejects_degree_minus_one_zero_in_nonnegative_slot():
    # a section of degree 0 is a constant form, not the degree -1 zero
    x = HomogPoly(F5, 1, (1, 0))
    with pytest.raises(ValueError, match="section 1 has degree -1, expected 0"):
        LineSubbundle(SplittingType((1, 0)), F5, 0, (x, HomogPoly.zero(F5)))


_GAPS_UP_TO_FOUR = [(0,), (0, 0), (1, 0), (2, 0), (3, 0), (2, -2), (1, 0, -1),
                    (3, 0, -1), (2, 2, -2), (4, 0, -4)]


@pytest.mark.parametrize("degrees", _GAPS_UP_TO_FOUR)
def test_every_stored_form_has_its_slot_degree(degrees):
    st = SplittingType(degrees)
    r = st.rank

    def assert_exact(phi):
        for i in range(r):
            for j in range(r):
                assert phi.entries[i][j].degree == hom_degree(phi.splitting, i, j)

    fields = [zero_field(st, F5), random_field(st, F5, 3)]
    if glr_admits_semistable(st):
        fields.append(build_model_field(st, F5, 3))
    fields += itertools.islice(enumerate_all_fields(st, F2), 64)
    for phi in fields:
        assert_exact(phi)
        assert_exact(phi.transpose_dual())
    for d in range(st.degrees[0], st.degrees[0] - 3, -1):
        for L in enumerate_line_subbundles(st, d, F2):
            assert [p.degree for p in L.sections] == [m - d for m in st.degrees]


# ----------------------------------------------------------------- oracle

def test_oracle_rejects_big_ranks_and_infinite_fields():
    with pytest.raises(ValueError, match=r"^oracle supports rank <= 3, got 4$"):
        semistability_oracle(zero_field(SplittingType((0, 0, 0, 0)), F5), "stable")
    with pytest.raises(ValueError, match="mode must be"):
        semistability_oracle(zero_field(SplittingType((0, 0)), F5), "almost")


def test_oracle_rank_one_always_passes():
    phi = random_field(SplittingType((2,)), F5, seed=0)
    assert semistability_oracle(phi, "stable").passes
    assert semistability_oracle(phi, "semistable").passes


def test_obstructed_splitting_fails_for_every_field_instance():
    st = SplittingType((3, 0))
    for seed in range(8):
        verdict = semistability_oracle(random_field(st, F2, seed), "semistable")
        assert not verdict.passes
        w = verdict.witness
        assert (w.rank, w.degree) == (1, 3)
        assert w.sections == ("1", "0")


def test_splitting_verdict_is_the_verdict_of_every_field():
    # a first gap above 2 decides the verdict of every field; any other
    # splitting, rank 1 included, is left to the oracle
    decided = 0
    cases = list(itertools.product((F2, F3, F5), range(2), ("stable", "semistable")))
    for rank in (1, 2, 3):
        for st in enumerate_splitting_types(rank, -2, 4):
            for fld, seed, mode in cases:
                verdict = splitting_verdict(st, fld, mode)
                if st.rank == 1 or st.degrees[0] - st.degrees[1] <= 2:
                    assert verdict is None, (st, mode)
                    continue
                decided += 1
                assert verdict == semistability_oracle(random_field(st, fld, seed), mode), st
    assert decided == len(cases) * (10 + 20)  # 10 splittings of rank 2, 20 of rank 3
    with pytest.raises(ValueError, match="mode"):
        splitting_verdict(SplittingType((3, 0)), F5, "almost")
    with pytest.raises(ValueError, match="rank <= 3"):
        splitting_verdict(SplittingType((9, 0, 0, 0)), F5, "stable")


def test_zero_field_fails_semistable_on_unbalanced_splitting():
    verdict = semistability_oracle(zero_field(SplittingType((1, -1)), F5), "semistable")
    assert not verdict.passes
    assert verdict.witness.degree == 1


def test_zero_field_semistable_on_balanced_splitting():
    assert semistability_oracle(zero_field(SplittingType((0, 0)), F5), "semistable").passes
    assert not semistability_oracle(zero_field(SplittingType((0, 0)), F5), "stable").passes


def test_model_field_stable_example():
    phi = build_model_field(SplittingType((1, -1)), F5, seed=0)
    assert semistability_oracle(phi, "stable").passes


def test_rank_three_quotient_witness():
    # the top rank-2 block is invariant (the lower-left entries are forced to
    # vanish) but carries no invariant line: the block wedge is
    # x^2 p1^2 - 2 y^2 p2^2 and 2 is not a square mod 5.  The oracle must
    # find the destabilizing rank-2 subbundle through the dual search.
    st = SplittingType((2, 2, -4))
    rows = [list(r) for r in zero_field(st, F5).entries]
    rows[1][0] = HomogPoly(F5, 2, (1, 0, 0))  # x^2
    rows[0][1] = HomogPoly(F5, 2, (0, 0, 2))  # 2 y^2
    phi = CoHiggsMatrix(st, F5, tuple(map(tuple, rows)))
    verdict = semistability_oracle(phi, "semistable")
    assert not verdict.passes
    w = verdict.witness
    assert (w.rank, w.degree) == (2, 4)
    assert w.sections and list(w.to_json_dict()) == ["rank", "degree", "dual_sections"]


def test_annihilator_duality_rank_two():
    # a line is invariant iff its annihilator line is invariant for the
    # transposed field on the dual splitting
    st = SplittingType((1, -1))
    dual = st.dual()
    for seed in range(10):
        phi = random_field(st, F5, seed)
        phi_t = phi.transpose_dual()
        for d in (0, 1):
            for L in enumerate_line_subbundles(st, d, F5):
                p1, p2 = L.sections
                dual_degree = d - st.degree
                ann = LineSubbundle(
                    dual,
                    F5,
                    dual_degree,
                    (p1, HomogPoly(F5, p2.degree, [-c for c in p2.coeffs])),
                )
                assert is_invariant(phi, L) == is_invariant(phi_t, ann)


def test_necessity_direction_exhaustive_rank_two():
    # every field on a gap-3 splitting admits the destabilizing top summand
    st = SplittingType((2, -1))
    count = 0
    for phi in enumerate_all_fields(st, F2):
        count += 1
        assert not semistability_oracle(phi, "semistable").passes
    assert count == 2 ** (3 + 6 + 3)


def test_necessity_direction_sampled():
    for degrees in [(4, 0), (4, -4), (3, 3, 0), (4, 0, -4), (2, -1, -1)]:
        st = SplittingType(degrees)
        assert not glr_admits_semistable(st)
        for seed in range(10):
            phi = random_field(st, F2, seed)
            assert not semistability_oracle(phi, "semistable").passes, (degrees, seed)


def test_model_field_sufficiency_across_primes():
    # on non-constant admissible splittings the chained model field is
    # stable over at least one small prime; on constant splittings its
    # kernel line ties the slope, so it is semistable but never stable
    primes = [PrimeField(5), PrimeField(7), PrimeField(11)]
    for r in (1, 2, 3):
        for st in enumerate_splitting_types(r, -3, 3):
            if not glr_admits_semistable(st):
                continue
            constant = len(set(st.degrees)) == 1
            if constant and r > 1:
                verdicts = [
                    semistability_oracle(build_model_field(st, p, 0), "stable")
                    for p in primes
                ]
                assert all(not v.passes for v in verdicts), st
                assert all(
                    v.witness.degree == Fraction(st.degree, st.rank) for v in verdicts
                ), st
                assert semistability_oracle(
                    build_model_field(st, primes[0], 0), "semistable"
                ).passes, st
            else:
                assert any(
                    semistability_oracle(build_model_field(st, p, 0), "stable").passes
                    for p in primes
                ), st


def test_exhaustive_verdicts_pinned():
    # every verdict and witness of every field on (1,0) and (2,-1) over F2 in
    # both modes (16384 verdicts), pinned by sha256
    verdicts = [
        semistability_oracle(phi, mode).to_json_dict()
        for degs in ((1, 0), (2, -1))
        for phi in enumerate_all_fields(SplittingType(degs), F2)
        for mode in ("stable", "semistable")
    ]
    assert len(verdicts) == 16384
    digest = hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()
    assert digest == "9f24ac1fa20a159c5e46e9e0aa776044b5b3e38373ef135c7353302e2bfdaf86"


def test_verdict_json_shape():
    verdict = semistability_oracle(zero_field(SplittingType((1, -1)), F5), "semistable")
    payload = verdict.to_json_dict()
    assert payload["verdict"] == "FAILS"
    assert payload["field"] == "F5"
    assert payload["mode"] == "semistable"
    assert payload["witnesses"][0]["degree"] == 1


# ------------------------------------------ kernel search vs the enumerator

def _brute_kernel_head(rows, p):
    # scan the vectors with leading entry 1 by leading slot, then in
    # lexicographic order; the first kernel vector met is the smallest
    # (leading slot, vector)
    n = len(rows[0])
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            v = [0] * lead + [1, *tail]
            if all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows):
                return lead, v
    return None


def _check_kernel_head(rows, p):
    want = _brute_kernel_head(rows, p)
    assert _kernel_head([row[:] for row in rows], p) == want, (rows, p)
    return want


@pytest.mark.parametrize("p,shape", [(2, (2, 4)), (3, (2, 4)), (2, (3, 2)), (3, (3, 2))])
def test_kernel_head_matches_brute_force_exhaustive(p, shape):
    nrows, ncols = shape
    heads = [
        _check_kernel_head([list(flat[i * ncols : (i + 1) * ncols]) for i in range(nrows)], p)
        for flat in itertools.product(range(p), repeat=nrows * ncols)
    ]
    # a 3 x 2 matrix has a zero kernel unless its rank drops
    assert (None in heads) == (nrows > ncols)


def test_kernel_head_matches_brute_force_sampled():
    # unreduced and negative entries, as the kernel search builds them
    rng = random.Random(20)
    for _ in range(2000):
        p = rng.choice((2, 3, 5, 7))
        rows = [[rng.randrange(-2 * p, 2 * p) for _ in range(5)] for _ in range(3)]
        _check_kernel_head(rows, p)


@functools.lru_cache(maxsize=None)
def _lines(st, degree, field):
    # the enumeration does not depend on the field instance; sweeps reuse it
    return tuple(enumerate_line_subbundles(st, degree, field))


def _reference_threshold(mode, slope):
    # the least violating line degree, from the slope as a Fraction
    return math.ceil(slope) if mode == "stable" else math.floor(slope) + 1


def _reference_oracle(phi, mode):
    # the enumerate-and-test oracle the kernel search replaced: every
    # saturated line from the top degree down, first invariant one wins;
    # for rank 3 the same on the dual splitting under the transposed field
    st, fld = phi.splitting, phi.field
    mu = Fraction(st.degree, st.rank)
    text = str(mu)
    if st.rank > 1:
        for d in range(st.degrees[0], _reference_threshold(mode, mu) - 1, -1):
            for L in _lines(st, d, fld):
                if is_invariant(phi, L):
                    w = OracleWitness(1, d, tuple(map(str, L.sections)))
                    return OracleVerdict(mode, fld.name, text, w)
    if st.rank == 3:
        phi_t = phi.transpose_dual()
        dual = phi_t.splitting
        for d in range(dual.degrees[0], _reference_threshold(mode, -mu) - 1, -1):
            for L in _lines(dual, d, fld):
                if is_invariant(phi_t, L):
                    w = OracleWitness(2, st.degree + d, tuple(map(str, L.sections)))
                    return OracleVerdict(mode, fld.name, text, w)
    return OracleVerdict(mode, fld.name, text, None)


def test_integer_thresholds_and_slope_text_match_fractions():
    # exhaustive against Fraction: the ceiling (stable) and floor + 1
    # (semistable) of degree / rank, for the degree and its negation as the
    # rank-3 dual search passes it, and the reduced slope text, which the
    # verdict of a balanced splitting carries for the oracle's ranks
    for degree in range(-40, 41):
        for rank in range(1, 10):
            mu = Fraction(degree, rank)
            assert _slope_text(degree, rank) == str(mu), (degree, rank)
            q, m = divmod(degree, rank)
            st = SplittingType((q + 1,) * m + (q,) * (rank - m))
            for mode in ("stable", "semistable"):
                assert _violation_threshold(mode, degree, rank) == _reference_threshold(mode, mu)
                assert _violation_threshold(mode, -degree, rank) == _reference_threshold(mode, -mu)
                if rank <= 3:
                    verdict = semistability_oracle(zero_field(st, F2), mode)
                    assert verdict.to_json_dict()["slope"] == str(mu), (degree, rank, mode)


def _assert_matches_reference(fields):
    witness_ranks = set()
    for phi in fields:
        for mode in ("stable", "semistable"):
            got = semistability_oracle(phi, mode).to_json_dict()
            assert got == _reference_oracle(phi, mode).to_json_dict(), (phi.to_json_dict(), mode)
            witness_ranks.update(w["rank"] for w in got["witnesses"])
    return witness_ranks


@pytest.mark.parametrize("degrees", [(1, 0), (0, 0), (1, 1), (2, 0), (3, 0), (2, -1)])
def test_kernel_search_matches_enumerator_exhaustive(degrees):
    # every field over F2 (4096 per splitting), verdict and witness alike
    _assert_matches_reference(enumerate_all_fields(SplittingType(degrees), F2))


def test_kernel_search_matches_enumerator_sampled():
    fields = [
        random_field(SplittingType(degrees), PrimeField(p), seed)
        for p in (2, 3, 5, 7, 11, 13)
        for degrees in ((1, -1), (2, 0), (3, 0), (1, 0, 0), (1, 0, -1), (2, 1, 0))
        for seed in range(4)
    ]
    _assert_matches_reference(fields)


def _block_triangular(st, field, seed, zeros):
    rows = [list(r) for r in random_field(st, field, seed).entries]
    for i, j in zeros:
        rows[i][j] = HomogPoly.zero(field, rows[i][j].degree)
    return CoHiggsMatrix(st, field, tuple(map(tuple, rows)))


def test_kernel_search_matches_enumerator_on_reducible_rank_three():
    # forced zeros below the top 2 x 2 block make its rank-2 subbundle
    # invariant, so rank-2 dual witnesses occur next to line witnesses
    fields = [
        _block_triangular(SplittingType(degrees), PrimeField(p), seed, zeros)
        for p in (2, 3, 5, 7)
        for degrees in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, -1))
        for seed in range(3)
        for zeros in (((2, 0), (2, 1)), ((1, 0), (2, 0)))
    ]
    assert _assert_matches_reference(fields) == {1, 2}


# ------------------------------------------------------ shared eigen-forms

_RANK_THREE = ((1, 0, -1), (2, 0, -2), (0, 0, 0), (2, 1, 0), (1, 1, -2), (2, 2, -4))


def _seeded_fields(splittings, primes, seeds):
    return [
        random_field(SplittingType(degrees), PrimeField(p), seed)
        for p in primes
        for degrees in splittings
        for seed in seeds
    ]


def test_eigen_forms_shared_with_the_dual():
    # the dual's numeric matrices are anti-transposes of phi's at every
    # point, so their characteristic polynomials and eigen-forms agree
    fields = _seeded_fields(((1, 0), (1, -1), (2, 0), (0, 0)) + _RANK_THREE, (2, 3, 5, 7), range(8))
    assert any(_eigen_forms(phi) for phi in fields)
    for phi in fields:
        assert _eigen_forms(phi.transpose_dual()) == _eigen_forms(phi), phi.to_json_dict()


def test_one_eigen_form_pass_per_call(monkeypatch):
    calls = []
    roots = oracle.roots

    def counted(coeffs, p):
        calls.append(p)
        return roots(coeffs, p)

    monkeypatch.setattr(oracle, "roots", counted)
    for phi in _seeded_fields(_RANK_THREE, (3, 5, 7), range(6)):
        for mode in ("stable", "semistable"):
            calls.clear()
            semistability_oracle(phi, mode)
            assert len(calls) <= 3, (phi.to_json_dict(), mode)


def test_no_eigen_form_passes_without_the_dual(monkeypatch):
    # with no eigen-form there is no invariant subbundle of any rank, so the
    # dual field is never built
    def refuse(self):
        raise AssertionError("transpose_dual called")

    fields = [
        phi for phi in _seeded_fields(_RANK_THREE, (2, 3, 5), range(20)) if not _eigen_forms(phi)
    ]
    assert len(fields) >= 10
    monkeypatch.setattr(CoHiggsMatrix, "transpose_dual", refuse)
    for phi in fields:
        for mode in ("stable", "semistable"):
            assert semistability_oracle(phi, mode).passes


# ------------------------------------------------------- the eigen-form sieve

def _top_degree_zero(gap_patterns):
    # one splitting per pattern of consecutive gaps, with top degree 0
    return tuple(
        SplittingType(tuple(-sum(gaps[:i]) for i in range(len(gaps) + 1)))
        for gaps in gap_patterns
    )


# the gap patterns of the oracle-certify benchmark
_CERTIFY_SPLITTINGS = _top_degree_zero(
    ((0,), (1,), (2,), (0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2))
)
_SIEVE_PRIMES = (5, 7, 11, 13)


# forced zeros that make the top summand, or the top 2 x 2 block, invariant
_BLOCK_ZEROS = {2: (((1, 0),),), 3: (((2, 0), (2, 1)), ((1, 0), (2, 0)))}


def _certify_fields():
    return [
        random_field(st, PrimeField(p), seed)
        for st in _CERTIFY_SPLITTINGS
        for p in _SIEVE_PRIMES
        for seed in range(10)
    ]


def _without_sieve(monkeypatch, call, *args):
    # the three-point candidates only, as before the sieve
    with monkeypatch.context() as m:
        m.setattr(oracle, "_sieve", lambda forms, coeffs, p: None)
        return call(*args)


def test_horner_matches_the_power_sum_on_long_forms():
    # the sieve evaluates entries of any degree, and characteristic
    # polynomials with unreduced or negative coefficients
    rng = random.Random("horner")
    for p in (2, 3, 5, 101, 1000003):
        for d in (0, 1, 2, 3, 50, 1000, 4000):
            coeffs = [rng.randrange(-p * p, p * p) for _ in range(d + 1)]
            for t in {0, 1, p - 1, rng.randrange(p)}:
                want = sum(c * pow(t, d - k, p) for k, c in enumerate(coeffs)) % p
                assert horner(coeffs, t, p) == want


def test_sieve_verdicts_pinned():
    # 960 verdicts at F5-F13, where the sieve visits several points
    verdicts = [
        semistability_oracle(phi, mode).to_json_dict()
        for phi in _certify_fields()
        for mode in ("stable", "semistable")
    ]
    assert len(verdicts) == 960
    digest = hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()
    assert digest == "7093bba39a54d332adc5e7619ac61df9cc2055b38926342f290e6749d1c1c849"


def test_sieve_matches_three_point_candidates(monkeypatch):
    # a dropped form has no kernel at any degree on phi or on its dual, so
    # the verdicts with and without the sieve agree
    fields = [
        random_field(st, PrimeField(p), seed)
        for st in _CERTIFY_SPLITTINGS
        for p in _SIEVE_PRIMES
        for seed in range(4)
    ] + [
        _block_triangular(st, PrimeField(p), seed, zeros)
        for st in _CERTIFY_SPLITTINGS
        for p in _SIEVE_PRIMES
        for seed in range(2)
        for zeros in _BLOCK_ZEROS[st.rank]
    ]
    dropped = 0
    witness_ranks = set()
    for phi in fields:
        for mode in ("stable", "semistable"):
            got = semistability_oracle(phi, mode).to_json_dict()
            assert got == _without_sieve(monkeypatch, semistability_oracle, phi, mode).to_json_dict()
            witness_ranks.update(w["rank"] for w in got["witnesses"])
        forms = _eigen_forms(phi)
        three_point = _without_sieve(monkeypatch, _eigen_forms, phi)
        assert forms == [f for f in three_point if f in forms], phi.to_json_dict()
        dual = phi.transpose_dual()
        for form in three_point:
            if form not in forms:
                dropped += 1
                for psi in (phi, dual):
                    floor = psi.splitting.degrees[-1] - 2
                    assert _top_invariant_line(psi, [form], floor) is None, (phi.to_json_dict(), form)
    assert dropped > 100
    assert witness_ranks == {1, 2}


def test_sieve_work_guard(monkeypatch):
    # the sieve leaves few forms for the kernel search; the same corpus made
    # 3036 eliminations with the three-point candidates alone
    calls = []
    kernel_head = oracle._kernel_head

    def counted(rows, p):
        calls.append(p)
        return kernel_head(rows, p)

    fields = _certify_fields()
    with monkeypatch.context() as m:
        m.setattr(oracle, "_kernel_head", counted)
        for phi in fields:
            for mode in ("stable", "semistable"):
                semistability_oracle(phi, mode)
    assert len(calls) <= 150

    # a field whose sieve empties the list passes without a kernel or a dual
    emptied = [
        phi for phi in fields
        if not _eigen_forms(phi) and _without_sieve(monkeypatch, _eigen_forms, phi)
    ]
    assert len(emptied) >= 10

    def refuse(*args):
        raise AssertionError("kernel search after an empty sieve")

    monkeypatch.setattr(oracle, "_kernel_head", refuse)
    monkeypatch.setattr(CoHiggsMatrix, "transpose_dual", refuse)
    for phi in emptied:
        for mode in ("stable", "semistable"):
            assert semistability_oracle(phi, mode).passes


def test_sieve_point_cap(monkeypatch):
    # the model field is nilpotent at every point, so the zero form survives
    # and the sieve runs to its cap: 2r + 1 points in all at F101; the scans
    # take one characteristic polynomial each, the sieve one per point
    counts = {"charpoly": 0, "scan": 0}
    charpoly, roots = oracle._charpoly, oracle.roots

    def counted_charpoly(m):
        counts["charpoly"] += 1
        return charpoly(m)

    def counted_roots(coeffs, p):
        counts["scan"] += 1
        return roots(coeffs, p)

    monkeypatch.setattr(oracle, "_charpoly", counted_charpoly)
    monkeypatch.setattr(oracle, "roots", counted_roots)
    for st in _CERTIFY_SPLITTINGS:
        counts.update(charpoly=0, scan=0)
        assert (0, 0, 0) in _eigen_forms(build_model_field(st, PrimeField(101)))
        assert counts["charpoly"] - counts["scan"] == 2 * st.rank - 2, st


# ------------------------------------------------------- the top summand

# the gap patterns of the oracle-sweep benchmark
_SWEEP_SPLITTINGS = _top_degree_zero(
    ((0,), (1,), (2,), (3,), (4,), (1, 0), (0, 1), (3, 0), (0, 3), (4, 0), (3, 3))
)


def test_top_summand_verdicts_pinned():
    # 880 verdicts over F2 and F3, 472 of them on a field that keeps its top
    # summand invariant; recorded before the first-line test existed
    verdicts = [
        semistability_oracle(random_field(st, fld, seed), mode).to_json_dict()
        for st in _SWEEP_SPLITTINGS
        for fld in (F2, F3)
        for seed in range(20)
        for mode in ("stable", "semistable")
    ]
    assert len(verdicts) == 880
    digest = hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()
    assert digest == "befc06ec37acdee2266055d182cb9292a6d7eaa3b57bc666d693687085222542"


def _top_summand_fields():
    # fields that keep the top summand: a first gap of 3 or more leaves
    # every entry below it in a zero space, else forced zeros do
    return [
        *(
            phi
            for degrees in ((3, 0), (4, 0))
            for phi in enumerate_all_fields(SplittingType(degrees), F2)
        ),
        *_seeded_fields(((3, 0, 0), (4, 1, 0)), (2, 3, 5, 7), range(6)),
        *(
            _block_triangular(SplittingType(degrees), PrimeField(p), seed, ((1, 0), (2, 0)))
            for p in (2, 3, 5, 7)
            for degrees in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, -1), (2, 0, -2))
            for seed in range(3)
        ),
    ]


def test_top_summand_decided_without_a_search(monkeypatch):
    # the first-line test answers before any eigen-form, kernel or dual, and
    # gives the enumerate-and-test verdict
    def refuse(*args):
        raise AssertionError("search for a field that keeps its top summand")

    fields = _top_summand_fields()
    modes = ("stable", "semistable")
    assert len(fields) == 2**12 + 2**13 + 48 + 60
    with monkeypatch.context() as m:
        m.setattr(oracle, "roots", refuse)
        m.setattr(oracle, "_kernel_head", refuse)
        m.setattr(CoHiggsMatrix, "transpose_dual", refuse)
        got = [semistability_oracle(phi, mode) for phi in fields for mode in modes]
    want = [_reference_oracle(phi, mode) for phi in fields for mode in modes]
    assert [v.to_json_dict() for v in got] == [v.to_json_dict() for v in want]
    # only the balanced (0, 0, 0) in semistable mode has no degree to visit
    assert sum(v.passes for v in got) == 12


# ------------------------------------------------- the second summand degree

def _line_range(st, mode):
    # whether the line search has a degree left once the top summand is not
    # invariant: lines above m_1 lie in O(m_0)
    return _violation_threshold(mode, st.degree, st.rank) <= st.degrees[1]


def _is_dual_top(st, witness):
    # the dual's top summand O(-m_2), the first line of the dual enumeration
    return witness == {"rank": 2, "degree": st.degree - st.degrees[2],
                       "dual_sections": ["1", "0", "0"]}


def test_second_degree_shortcuts_match_the_reference():
    # splittings with m_0 > m_1 or m_1 > m_2, where the line search starts
    # below the top degree or has no degree at all, the dual search starts
    # below -m_2, or the dual's top summand answers from phi_20 and phi_21
    splittings = ((2, 1, 0), (1, 1, -1), (2, 2, 0), (1, 0, 0), (2, 0, -1))
    fields = _seeded_fields(splittings, (2, 3, 5, 7), range(6)) + [
        _block_triangular(SplittingType(degrees), PrimeField(p), seed, zeros)
        for p in (2, 3, 5, 7)
        for degrees in splittings
        for seed in range(4)
        for zeros in (((2, 0), (2, 1)), ((1, 0), (2, 0)))
    ]
    witness_ranks = set()
    dual_top = {True: 0, False: 0}  # by whether the line search had a range
    for phi in fields:
        st = phi.splitting
        for mode in ("stable", "semistable"):
            got = semistability_oracle(phi, mode).to_json_dict()
            assert got == _reference_oracle(phi, mode).to_json_dict(), (phi.to_json_dict(), mode)
            for w in got["witnesses"]:
                witness_ranks.add(w["rank"])
                if _is_dual_top(st, w):
                    dual_top[_line_range(st, mode)] += 1
    assert witness_ranks == {1, 2}
    assert min(dual_top.values()) >= 10, dual_top


def test_second_degree_work_guard(monkeypatch):
    # rank 2 with a gap of 1 or 2: the threshold is above m_1 in both
    # modes, so the top-summand test alone decides every field
    rank_two = [
        (phi, mode)
        for degrees in ((1, 0), (2, 0), (1, -1))
        for phi in enumerate_all_fields(SplittingType(degrees), F2)
        for mode in ("stable", "semistable")
    ]
    # rank 3 with no line degree to search, whose witness is the dual's top
    # summand; and (1, 0, -1) in semistable mode, with neither range
    rank_three = [
        (phi, mode)
        for phi in (
            _block_triangular(SplittingType(degrees), PrimeField(p), seed, ((2, 0), (2, 1)))
            for p in (2, 3, 5, 7)
            for degrees in ((1, 0, 0), (2, 0, 0), (2, 0, -1), (2, 1, 0))
            for seed in range(6)
        )
        for mode in ("stable", "semistable")
        if not _line_range(phi.splitting, mode)
        and _is_dual_top(phi.splitting, _reference_oracle(phi, mode).to_json_dict()["witnesses"][0])
    ]
    neither = [
        (phi, "semistable") for phi in _seeded_fields(((1, 0, -1),), (2, 3, 5, 7), range(10))
    ]
    cases = rank_two + rank_three + neither
    assert len(rank_two) == 3 * 2**13 and len(rank_three) >= 100

    def refuse(*args):
        raise AssertionError("a search the degrees rule out")

    with monkeypatch.context() as m:
        m.setattr(oracle, "roots", refuse)
        m.setattr(oracle, "_kernel_head", refuse)
        m.setattr(CoHiggsMatrix, "transpose_dual", refuse)
        got = [semistability_oracle(phi, mode).to_json_dict() for phi, mode in cases]
    assert got == [_reference_oracle(phi, mode).to_json_dict() for phi, mode in cases]
    assert any(v["witnesses"] for v in got) and any(not v["witnesses"] for v in got)


# ------------------------------------------------------ long line searches

def _long_range_fields(gaps, seeds):
    # seeded fields on the splittings with top degree 0 and these gap pairs,
    # over F2-F7, also with a zero at phi_01 or at phi_12 (the dual's entry
    # (0, 1)), which makes the top 2 x 2 block of phi or of its dual
    # triangular, so that its eigen-forms are rational
    return [
        _block_triangular(st, PrimeField(p), seed, zeros)
        for st in _top_degree_zero(gaps)
        for p in (2, 3, 5, 7)
        for seed in seeds
        for zeros in ((), ((0, 1),), ((1, 2),))
    ]


def test_long_range_verdicts_pinned():
    # 2880 verdicts on splittings with a first gap of 0-2 and a second gap
    # of 4-13, whose stable line search spans up to four degrees below m_1;
    # recorded when it visited every one of them
    fields = _long_range_fields([(a, b) for a in (0, 1, 2) for b in (4, 7, 10, 13)], range(10))
    verdicts = [
        semistability_oracle(phi, mode).to_json_dict()
        for phi in fields
        for mode in ("stable", "semistable")
    ]
    assert len(verdicts) == 2880
    digest = hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()
    assert digest == "496913910fb1017fc164f80f2eb0b7a18410105adf777ce2a306f6a626b42dad"


def test_no_kernel_starts_below_m1_minus_two():
    # the lemma of _first_witness: once the top summand is not invariant,
    # the kernel of phi - form above m_2 is 0 or one line of degree at least
    # m_1 - 2; checked down to m_2 + 1, where the last summand still has no
    # sections, on phi where its second gap is 4-7, and on the dual of the
    # mirror splittings, whose first gap is 4-7
    gaps = [(a, b) for a in (0, 1, 2) for b in (4, 5, 6, 7)]
    fields = _long_range_fields(gaps + [(b, a) for a, b in gaps], range(10))
    starts = ([], [])  # top kernel degree minus m_1, on phi and on the dual
    for phi in fields:
        forms = _eigen_forms(phi)
        for side, psi in enumerate((phi, phi.transpose_dual())):
            m = psi.splitting.degrees
            if all(psi.entries[i][0].is_zero for i in (1, 2)):
                continue  # the top summand is invariant; no search runs
            for form in forms:
                if hit := _top_invariant_line(psi, [form], m[2] + 1):
                    starts[side].append(hit[0] - m[1])
    for found in starts:
        assert set(found) == {0, -1, -2}
        assert found.count(-2) >= 100


def test_line_search_visits_three_degrees(monkeypatch):
    # the line search makes at most three eliminations per eigen-form, at
    # m_1, m_1 - 1 and m_1 - 2, however long its range; the dual search at
    # most one, at -m_1
    scans = []  # per search: the field searched, the eigen-form count, the eliminations
    kernel_head, top_invariant_line = oracle._kernel_head, oracle._top_invariant_line

    def counted_kernel_head(rows, p):
        scans[-1][2] += 1
        return kernel_head(rows, p)

    def counted_search(psi, forms, floor):
        scans.append([psi, len(forms), 0])
        return top_invariant_line(psi, forms, floor)

    monkeypatch.setattr(oracle, "_kernel_head", counted_kernel_head)
    monkeypatch.setattr(oracle, "_top_invariant_line", counted_search)
    fields = _seeded_fields(((0, 0, -12), (0, 0, -96)) + _RANK_THREE, (2, 3, 5, 7), range(20))
    eliminations = {"line": 0, "dual": 0}
    for phi in fields:
        for mode in ("stable", "semistable"):
            scans.clear()
            semistability_oracle(phi, mode)
            for psi, forms, count in scans:
                side = "line" if psi is phi else "dual"
                assert count <= (3 if side == "line" else 1) * forms, (phi.to_json_dict(), mode)
                eliminations[side] += count
    assert min(eliminations.values()) > 100, eliminations
