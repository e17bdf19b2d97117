"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines.
Criterion 08 is known red: the chained subdiagonal model field on the
balanced splitting (0,0) keeps its kernel line O(0) invariant at slope equal
to the bundle slope, so it is semistable but provably not stable over any
field, and the oracle correctly reports FAILS.  A generic (seeded random)
field on the same splitting does pass stable mode; see
test_oracle.test_model_field_sufficiency_across_primes for the sharp
dichotomy.  The assertion here is kept as stated rather than weakened.
"""

import random
import time
from itertools import product

from cohiggs import (
    CartanType,
    HNType,
    PrimeField,
    ReductiveGroup,
    SplittingType,
    admits_stable_cohiggs,
    adjoint_splitting,
    all_root_values,
    build_model_field,
    parse_group,
    semistability_oracle,
    semistable_obstruction,
    sp_to_hn,
    splitting_to_hn,
)
from cohiggs.strata import dim_automorphisms, dim_cohiggs_space, dim_stratum, enumerate_strata
from cohiggs.symplectic import SymplecticSplitting
from reference import (
    enumerate_all_fields,
    enumerate_splitting_types,
    glr_admits_semistable,
    hom_vanishing_certificate,
    sp_admits_stable,
)

RANK_LE_4_TYPES = [
    CartanType("A", 1), CartanType("A", 2), CartanType("A", 3), CartanType("A", 4),
    CartanType("B", 2), CartanType("B", 3), CartanType("B", 4),
    CartanType("C", 2), CartanType("C", 3), CartanType("C", 4),
    CartanType("D", 3), CartanType("D", 4),
    CartanType("G", 2), CartanType("F", 4),
]

ALL_SUPPORTED_TYPES = RANK_LE_4_TYPES + [
    CartanType("A", 5), CartanType("E", 6), CartanType("E", 7), CartanType("E", 8),
]


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} [{status}] {description}{suffix}")


def test_criterion_01_gap_criterion_equals_group_criterion():
    start = time.perf_counter()
    checked = 0
    mismatches = []
    for r in range(1, 6):
        for st in enumerate_splitting_types(r, -5, 5):
            checked += 1
            if glr_admits_semistable(st) != admits_stable_cohiggs(*splitting_to_hn(st)):
                mismatches.append(st)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    _report(1, "rank-r gap criterion == simple-root criterion", ok,
            f"{checked} splitting types, {elapsed:.2f}s")
    assert not mismatches, mismatches[:5]
    assert elapsed < 10.0


def test_criterion_02_obstruction_certificate_degrees():
    bad = []
    checked = 0
    for ct in RANK_LE_4_TYPES:
        g = ReductiveGroup((ct,))
        for values in product(range(6), repeat=ct.rank):
            for i, v in enumerate(values):
                if v < 3:
                    continue
                checked += 1
                summands = hom_vanishing_certificate(g, HNType((values,)), 0, i)
                if any(deg > -3 for _, deg in summands) or not summands:
                    bad.append((ct, values, i))
    _report(2, "vanishing certificates bound every summand by -3", not bad,
            f"{checked} certificates")
    assert not bad, bad[:5]


def test_criterion_03_adjoint_gaps_for_stable_types():
    bad = []
    checked = 0
    for ct in RANK_LE_4_TYPES:
        g = ReductiveGroup((ct,))
        for values in product(range(6), repeat=ct.rank):
            hn = HNType((values,))
            if semistable_obstruction(g, hn):
                continue
            checked += 1
            st = adjoint_splitting(g, hn)
            if any(gap > 2 for gap in st.gaps()):
                bad.append((ct, values))
    _report(3, "adjoint splitting of stable types has gaps <= 2", not bad,
            f"{checked} types")
    assert not bad, bad[:5]


def test_criterion_04_zero_type_dimension_identities():
    bad = []
    for ct in RANK_LE_4_TYPES:
        g = ReductiveGroup((ct,))
        zero = HNType(((0,) * ct.rank,))
        got = (
            dim_cohiggs_space(g, zero),
            dim_automorphisms(g, zero),
            dim_stratum(g, zero),
        )
        if got != (3 * g.dim, g.dim, 2 * g.dim):
            bad.append((ct, got))
    _report(4, "zero type gives dimensions (3, 1, 2) x dim(G)", not bad,
            f"{len(RANK_LE_4_TYPES)} groups")
    assert not bad, bad


def test_criterion_05_closed_forms_match_direct_summation():
    start = time.perf_counter()
    bad = []
    strata_count = 0
    for ct in RANK_LE_4_TYPES:
        g = ReductiveGroup((ct,))
        for record in enumerate_strata(g):
            strata_count += 1
            values = all_root_values(g, record.hn)
            aut_direct = g.rank + sum(v + 1 for v in values if v > -1)
            aut_closed = g.dim + sum(v - 1 for v in values if v > 1)
            stratum_closed = (
                2 * g.dim
                - 2 * sum(1 for v in values if v > 3)
                - sum(v - 1 for v in values if 1 < v <= 3)
            )
            v_consistent = 3 * g.dim + sum(v - 3 for v in values if v > 3)
            if not (
                record.dim_aut == aut_direct == aut_closed
                and record.dim_stratum == stratum_closed
                and record.dim_cohiggs == v_consistent
            ):
                bad.append((ct, record.hn))

    # the naive simplification with +3 per large value overcounts: at the
    # rank-two type with value 4 the direct sum gives 10, the +3 variant 16
    a1 = ReductiveGroup((CartanType("A", 1),))
    hn4 = HNType(((4,),))
    direct = dim_cohiggs_space(a1, hn4)
    values = all_root_values(a1, hn4)
    plus3_variant = 3 * a1.dim + sum(v + 3 for v in values if v > 3)
    discrepancy_ok = direct == 10 and plus3_variant == 16 and direct != plus3_variant

    elapsed = time.perf_counter() - start
    ok = not bad and discrepancy_ok and elapsed < 1.0
    _report(5, "closed forms agree with direct sums; +3 variant refuted", ok,
            f"{strata_count} strata, direct 10 vs +3-form 16, {elapsed:.2f}s")
    assert not bad, bad[:5]
    assert discrepancy_ok
    assert elapsed < 1.0


def test_criterion_06_root_values_sum_to_zero():
    rng = random.Random(20260810)
    bad = []
    for _ in range(1000):
        ct = rng.choice(ALL_SUPPORTED_TYPES)
        g = ReductiveGroup((ct,))
        hn = HNType((tuple(rng.randrange(0, 7) for _ in range(ct.rank)),))
        if sum(all_root_values(g, hn)) != 0:
            bad.append((ct, hn))
    _report(6, "root values sum to zero on 1000 seeded dominant types", not bad)
    assert not bad, bad[:5]


def test_criterion_07_oracle_necessity_exhaustive():
    start = time.perf_counter()
    st = SplittingType((3, 0))
    f2 = PrimeField(2)
    total = 0
    bad = 0
    for phi in enumerate_all_fields(st, f2):
        total += 1
        verdict = semistability_oracle(phi, "semistable")
        if verdict.passes:
            bad += 1
            continue
        w = verdict.witness
        if (w.rank, w.degree, w.sections) != (1, 3, ("1", "0")):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = total == 2 ** (3 + 6 + 3) and bad == 0 and elapsed < 60.0
    _report(7, "all 4096 fields on (3,0)/F2 fail with the degree-3 witness", ok,
            f"{total} matrices, {elapsed:.2f}s")
    assert total == 2 ** (3 + 6 + 3)
    assert bad == 0
    assert elapsed < 60.0


def test_criterion_08_model_fields_pass_stable_mode():
    start = time.perf_counter()
    cases = [(1, -1), (0, 0), (2, 0, -2), (1, 0, -1)]
    f5 = PrimeField(5)
    extra = [PrimeField(7), PrimeField(11)]
    failures = []
    for degrees in cases:
        st = SplittingType(degrees)
        over_f5 = semistability_oracle(build_model_field(st, f5, 0), "stable").passes
        over_extra = any(
            semistability_oracle(build_model_field(st, p, 0), "stable").passes
            for p in extra
        )
        if not (over_f5 and over_extra):
            failures.append(degrees)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    detail = f"{elapsed:.2f}s"
    if failures:
        detail += (
            f"; model field not stable on {failures}: its kernel line ties the "
            "slope there (semistable only; a generic field is stable)"
        )
    _report(8, "model fields pass stable mode over F5 and F7/F11", ok, detail)
    assert not failures, (
        f"model fields on {failures} are semistable but not stable: the last "
        "summand is invariant with slope equal to the bundle slope; no seed or "
        "prime changes that, and the oracle verdict is the mathematically "
        "correct one"
    )
    assert elapsed < 120.0


def test_criterion_09_symplectic_equivalence_exhaustive():
    start = time.perf_counter()
    bad = []
    checked = 0

    def half_lists(r, e_max):
        def rec(prefix, hi):
            if len(prefix) == r:
                yield tuple(prefix)
                return
            for e in range(hi, -1, -1):
                prefix.append(e)
                yield from rec(prefix, e)
                prefix.pop()

        yield from rec([], e_max)

    for r in range(1, 5):
        for half in half_lists(r, 5):
            checked += 1
            ss = SymplecticSplitting(half)
            full = ss.full_degrees
            gaps = [full[i] - full[i + 1] for i in range(len(full) - 1)]
            if sp_admits_stable(ss) != admits_stable_cohiggs(*sp_to_hn(ss)):
                bad.append(half)
            if gaps != gaps[::-1]:
                bad.append(half)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 5.0
    _report(9, "symplectic criterion == C_r criterion; palindromic gaps", ok,
            f"{checked} half-degree lists, {elapsed:.2f}s")
    assert not bad, bad[:5]
    assert elapsed < 5.0


def test_criterion_10_strata_counts():
    expected = {
        "A1": 3,
        "A2": 9,
        "C2": 9,
        "G2": 9,
        "A1xA1": 9,
    }
    got = {
        name: len(enumerate_strata(parse_group(name)))
        for name in expected
    }
    ok = got == expected
    _report(10, "strata counts equal 3^rank", ok, str(got))
    assert got == expected
