import argparse
import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations_with_replacement

import pytest

import cohiggs.cli
import cohiggs.lie
import cohiggs.oracle
import cohiggs.strata
from cohiggs import PrimeField, SplittingType, build_root_system, parse_group, random_field
from cohiggs.cli import (
    _STRATA_COLUMNS, _STRATA_WIDTHS, _json_text, _strata_layout, build_parser, main,
)
from cohiggs.strata import strata_rows
from reference import deadline


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_text(capsys):
    code, out, _ = run(
        capsys, "criterion", "--group", "A2+z1", "--hn", "1,1", "--central", "3"
    )
    assert code == 0
    assert "admits_stable: true" in out


def test_criterion_json(capsys):
    code, out, _ = run(
        capsys,
        "criterion", "--group", "A2", "--hn", "1,5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["admits_stable"] is False
    assert payload["obstruction"] == [{"factor": 0, "root": 1, "value": 5}]
    assert payload["adjoint_degrees"][0] == 6


def test_adjoint(capsys):
    code, out, _ = run(capsys, "adjoint", "--group", "A1", "--hn", "2")
    assert code == 0
    assert out.strip() == "2,0,-2"


def test_glr_check_informational_exit(capsys):
    code, out, _ = run(capsys, "glr-check", "--splitting", "3,0")
    assert code == 0
    assert "no semistable co-Higgs field exists" in out
    code, out, _ = run(capsys, "glr-check", "--splitting", "1,-1")
    assert code == 0
    assert "exists" in out


def test_strata_csv(capsys):
    code, out, _ = run(capsys, "strata", "--group", "A1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,dim_VM,dim_aut,dim_stratum,generic"
    assert len(lines) == 4
    assert lines[1] == "0,9,3,6,true"


def test_strata_json_schema(capsys):
    code, out, _ = run(capsys, "strata", "--group", "A1xA1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 9
    for row in rows:
        assert set(row) == {"a", "dim_VM", "dim_aut", "dim_stratum", "generic"}
        assert isinstance(row["a"], list) and len(row["a"]) == 2
        assert all(isinstance(row[k], int) for k in ("dim_VM", "dim_aut", "dim_stratum"))
        assert isinstance(row["generic"], bool)


# sha256 of the strata output, pinned so that a rewrite of the dimension
# arithmetic cannot change a single byte of what the CLI prints
@pytest.mark.parametrize("argv,digest", [
    (
        ["strata", "--group=F4", "--format=csv"],
        "bd2a545fce7ee2f78dd8371f3feccaad14e28ffc6c4d031f305c07531eabe979",
    ),
    (
        ["strata", "--group=C3xA1+z2", "--central=1,-2", "--format=json"],
        "d28f3ed57a89a4364d4b1faab0b33f44b5c360b24dda72d1d3f3477c6a4cc434",
    ),
    (
        ["strata", "--group=G2xA2", "--format=text"],
        "bc84dd01eb4b1504b99cd35387758dd13e24ad8354db419a69f40acd8ed24be7",
    ),
    (
        ["strata", "--group=E7", "--format=json"],
        "51d48e6aacab5d786cac65056125df9abc1f57f5175e5e11b6cd0e96e7ebea86",
    ),
    (
        ["strata", "--group=E7", "--format=csv"],
        "f13dd61ac26970d074c99c5752c2b3638cfb20e1e53561be2d6e20b9b0c0e3c4",
    ),
    (   # three factors and a centre
        ["strata", "--group=A1xG2xA2+z1", "--central=2", "--format=json"],
        "ff036a2068e8b9bd33f6b86f3a2f44d96634b38374b6775119a46ca7aeea89b6",
    ),
    (   # no simple factors: "a" is an empty list
        ["strata", "--group=+z2", "--central=1,-1", "--format=json"],
        "623b3c262f5cd8086a4ab9c34548c77fd3d00025f71950f7d1b698023a58c82a",
    ),
    (   # a repeated factor
        ["strata", "--group=A1xA1xA2", "--format=json"],
        "42d18c4c7e439b14ffdfcc7fec19287780e00a82d7aa3bc81d0338bb725f024f",
    ),
    (
        ["strata", "--group=E8", "--format=json"],
        "7ee64e3fadc843e68aa5eadedf43c34394b390eb516e7734bdfe647c283a18ed",
    ),
    # the layouts of csv and text from the old csv.writer and f-string code:
    # an empty, a bare and a quoted first cell
    (
        ["strata", "--group=+z2", "--central=1,-1", "--format=csv"],
        "3088a07b171b3aae5bb022738853e281a7d2f23477d82e83adced7378f485fa9",
    ),
    (
        ["strata", "--group=+z2", "--central=1,-1", "--format=text"],
        "8d45037b5a3d1b0bb47ad211436051ed7018b822e4a0703449882f2ccbd01b55",
    ),
    (
        ["strata", "--group=A1", "--format=csv"],
        "ad9c5d576daec82c19aa6d3838e5612f45ba94b62335ad460ea68f9a8b3b953b",
    ),
    (
        ["strata", "--group=A1", "--format=text"],
        "736e5b02b8537ba29d9d30dad87f78f774dcca488e3a95aa34931922d433cbff",
    ),
    (
        ["strata", "--group=A1xA1", "--format=csv"],
        "f4353874d27c606656d351dd4d9e5dbf8f9657b9ec3d06d85fddc22186a9cdc1",
    ),
])
def test_strata_output_byte_identical(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_TEMPLATE_GROUPS = pytest.mark.parametrize("group,central", [
    ("+z2", ()), ("A1", ()), ("G2xA2", ()), ("C3xA1+z2", (1, -2)), ("A1xA1xA2", ()),
    ("E7", ()),
])


def render_strata(fmt, group, central):
    """The rows of a group through its layout, and the rows themselves."""
    g = parse_group(group)
    rows = list(strata_rows(g, central or (0,) * g.central_rank))
    head, template, sep, tail = _strata_layout(fmt, g.semisimple_rank)
    lines = (template % (*a, vm, aut, dim, str(generic).lower())
             for a, vm, aut, dim, generic in rows)
    return head + sep.join(lines) + tail, rows


@_TEMPLATE_GROUPS
def test_strata_json_template_matches_json_dumps(group, central):
    # slow reference: the encoder on one dict per row
    assert list(_STRATA_COLUMNS) == sorted(_STRATA_COLUMNS)
    text, rows = render_strata("json", group, central)
    expected = json.dumps(
        [dict(zip(_STRATA_COLUMNS, row)) for row in rows], sort_keys=True, indent=2
    )
    assert text == expected + "\n"


def strata_cells(rows):
    return [
        (",".join(map(str, a)), vm, aut, dim, str(generic).lower())
        for a, vm, aut, dim, generic in rows
    ]


@_TEMPLATE_GROUPS
def test_strata_csv_template_matches_csv_writer(group, central):
    text, rows = render_strata("csv", group, central)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(_STRATA_COLUMNS)
    writer.writerows(strata_cells(rows))
    assert text == expected.getvalue()


@_TEMPLATE_GROUPS
def test_strata_text_template_matches_aligned_cells(group, central):
    # slow reference: each cell right-aligned on its own, "-" for no values
    text, rows = render_strata("text", group, central)
    expected = "".join(
        " ".join(f"{c:>{w}}" for c, w in zip((a or "-", *rest), _STRATA_WIDTHS)) + "\n"
        for a, *rest in [_STRATA_COLUMNS, *strata_cells(rows)]
    )
    assert text == expected


class WriteOnly:
    """A text stream with only ``write`` and ``flush``, as the benchmark's."""

    def __init__(self):
        self.parts = []

    def write(self, s):
        self.parts.append(s)
        return len(s)

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    [*command, f"--format={fmt}"]
    for command, formats in [
        (["criterion", "--group=C3xA1+z2", "--hn=1,0,2,3", "--central=1,2"], ("text", "json")),
        (["adjoint", "--group=G2", "--hn=1,2"], ("text", "json")),
        (["strata", "--group=A1xA2+z1", "--central=3"], ("text", "json", "csv")),
        (["glr-check", "--splitting=2,0,-1"], ("text", "json")),
        (["sp-check", "--half-degrees=2,1"], ("text", "json")),
        (["model-field", "--splitting=1,-1,-3", "--prime=5", "--seed=2"], ("text", "json")),
        (["oracle", "--splitting=1,1,0", "--prime=3", "--mode=semistable", "--seed=38"],
         ("json", "text")),
    ]
    for fmt in formats
], ids=" ".join)
def test_output_needs_only_write_and_flush(capsys, monkeypatch, argv):
    # the benchmark hashes output through a stream with these two methods
    # alone; every command must print the same bytes through it
    expected = run(capsys, *argv)
    sink = WriteOnly()
    with monkeypatch.context() as m:
        m.setattr("sys.stdout", sink)
        code = main(argv)
    assert (code, "".join(sink.parts)) == expected[:2]
    assert capsys.readouterr().err == expected[2]


# sha256 of the oracle and model-field output with the exit code, pinned so
# that a rewrite of the form arithmetic or the subbundle search cannot change
# a verdict, a witness or a printed coefficient
@pytest.mark.parametrize("argv,exit_code,digest", [
    (
        ["oracle", "--splitting=3,0", "--prime=2", "--mode=semistable"],
        2,
        "78545704b17797babcfa210587a4a89269b895254e40e28f354dc31374614e86",
    ),
    (
        ["oracle", "--splitting=1,0,-1", "--prime=7", "--mode=stable", "--seed=4"],
        0,
        "1db64207d582b8eac00485a602c6a3b7c6b3e16fac1013b32492d011041081b6",
    ),
    (
        ["oracle", "--splitting=0,0", "--prime=5", "--mode=stable", "--model",
         "--format=text"],
        2,
        "2749382fe63ebba1ff22e9f8aa6269ceb042910a7376d43c0c0009760795aaa5",
    ),
    (   # a rank-1 witness with polynomial sections
        ["oracle", "--splitting=1,0,-1", "--prime=3", "--mode=stable", "--seed=53"],
        2,
        "dbb2fcf0a37dd77ac1a85d262f1b2271afaed916ce1fa882ce21d2af7ad6b563",
    ),
    (   # a rank-2 witness found through the dual search
        ["oracle", "--splitting=1,1,0", "--prime=3", "--mode=semistable", "--seed=38"],
        2,
        "3ffb64d555491ba92a18266b0fadfb98c9f14d60a79f0e6badf455d8d124650d",
    ),
    (   # contains entries in zero spaces
        ["model-field", "--splitting=1,-1,-3", "--prime=5", "--seed=2", "--format=json"],
        0,
        "90f629ce40c264c95d8ada4f0a8783a82cc99b1119a06843f3ad4fc3b2f120d1",
    ),
    (   # the same field as text: each zero-space entry prints as 0
        ["model-field", "--splitting=1,-1,-3", "--prime=5", "--seed=2", "--format=text"],
        0,
        "d44caf48dce6a21bc699c0499875ac4410718cb7d0fe865a82a322b81124970e",
    ),
])
def test_oracle_output_byte_identical(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# one splitting per rank 1-4 (the group depends only on the rank) and one
# symplectic splitting per r = 1-3
@pytest.mark.parametrize("argv", [
    ["glr-check", "--splitting", s] for s in ("3", "2,-1", "2,0,-2", "3,1,0,-4")
] + [
    ["sp-check", "--half-degrees", h] for h in ("1", "2,1", "2,1,0")
])
def test_printed_group_parses_back(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    printed = json.loads(out)["group"]
    g = parse_group(printed)
    assert str(g) == printed
    assert parse_group(str(g)) == g


def _check_corpus():
    # glr-check on every weakly decreasing splitting of rank 1-5 in [-3, 3],
    # sp-check on every half-degree list of rank 1-4 in [0, 4]
    for r in range(1, 6):
        for degrees in combinations_with_replacement(range(3, -4, -1), r):
            yield "glr-check", "--splitting=" + ",".join(map(str, degrees))
    for r in range(1, 5):
        for half in combinations_with_replacement(range(4, -1, -1), r):
            yield "sp-check", "--half-degrees=" + ",".join(map(str, half))


def test_check_commands_output_pinned(capsys):
    # sha256 over the text and JSON output of every corpus invocation, in
    # order, recorded when glr-check and sp-check still took their verdicts
    # from separate gap rules rather than from admits_stable_cohiggs
    digest = hashlib.sha256()
    count = 0
    for argv in _check_corpus():
        for fmt in ("text", "json"):
            code, out, err = run(capsys, *argv, f"--format={fmt}")
            assert (code, err) == (0, ""), argv
            digest.update(out.encode())
            count += 1
    assert count == 1832
    assert digest.hexdigest() == "d4b67575d0ff4637f65ceaa0b4a761e2b5a56d8374c3c79c7392e5fb4f054cf6"


def test_sp_check(capsys):
    code, out, _ = run(capsys, "sp-check", "--half-degrees", "2,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["admits_stable"] is True
    assert payload["group"] == "C2"
    assert payload["hn"] == [1, 2]


def test_model_field_json(capsys):
    code, out, _ = run(
        capsys,
        "model-field", "--splitting", "1,-1", "--prime", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["field"] == "F5"
    assert payload["entries"][1][0]  # nonzero subdiagonal coefficients
    assert payload["entries"][0][0] == [0, 0, 0]


def test_oracle_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        "oracle", "--splitting", "3,0", "--prime", "5", "--mode", "semistable",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "FAILS"
    assert payload["witnesses"][0]["degree"] == 3

    code, out, _ = run(
        capsys,
        "oracle", "--splitting", "1,-1", "--prime", "5", "--mode", "stable", "--model",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "PASSES"


def test_module_entry_point_exit_codes():
    # python -m cohiggs hands main's return value to the process exit code
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "cohiggs", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    done = module("glr-check", "--splitting", "2,0")
    assert done.returncode == 0
    assert done.stdout == (
        "splitting 2,0: a semistable co-Higgs field exists (generic one is stable)\n"
    )
    done = module(
        "oracle", "--splitting", "2,-1", "--prime", "5", "--mode", "stable", "--format", "text",
    )
    assert done.returncode == 2
    assert done.stdout.splitlines()[0] == "FAILS (stable mode over F5)"
    done = module("oracle", "--splitting", "1,0", "--prime", "4", "--mode", "stable")
    assert done.returncode == 1
    assert "cohiggs: error: 4 is not prime" in done.stderr


def test_oracle_large_prime_passes(capsys):
    # out of reach for enumeration: about p^3 = 10^6 section tuples per degree
    code, out, _ = run(
        capsys, "oracle", "--splitting=2,0,-2", "--prime=101", "--mode=stable"
    )
    assert code == 0
    assert "PASSES" in out


def test_oracle_large_gap_answers_quickly(capsys):
    # the sieve evaluates the entry of degree 200002 at [t:1]; reducing at
    # every Horner step keeps that linear in the degree, not quadratic
    with deadline(2):
        code, out, _ = run(
            capsys, "oracle", "--splitting=200000,0", "--prime=5", "--mode=stable"
        )
    assert code == 2
    assert '"degree": 200000' in out


def test_oracle_kept_top_summand_answers_at_a_large_prime(capsys):
    # a first gap of 3 leaves the entry below O(3) in a zero space, so the
    # verdict needs no eigenvalue scan, which tries every t < p
    with deadline(2):
        code, out, _ = run(
            capsys, "oracle", "--splitting=3,0", "--prime=1000000007", "--mode=stable"
        )
    assert code == 2
    assert '"degree": 3' in out


def test_oracle_eigenvalues_at_a_large_prime_pinned(capsys):
    # the eigenvalue scan tries every t < p at three points; the exit code
    # and the bytes were recorded before the scan moved into poly.roots
    with deadline(10):
        code, out, _ = run(
            capsys, "oracle", "--splitting=2,0,-2", "--prime=1000003", "--mode=stable"
        )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "05f2925acf23405f883f643d3bea0e3a62de7538c50d113fa2e3798fbcd04622"


def test_oracle_long_second_gap_answers_quickly(capsys):
    # the line search stops at m_1 - 2, so a second gap of G costs only the
    # field draw and Horner evaluation, both linear in G; the bytes of G =
    # 384 were recorded when the search walked from 0 down to -128, which
    # took about two minutes
    with deadline(2):
        code, out, _ = run(capsys, "oracle", "--splitting=0,0,-384", "--prime=3", "--mode=stable")
        assert code == 2
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "c6bfeb53da2ab703e8aad1a25b8769dbc894b57f7881671cce005c35d376f5a5"
        code, out, _ = run(
            capsys, "oracle", "--splitting=0,0,-100000", "--prime=3", "--mode=stable"
        )
    assert code == 2
    assert json.loads(out)["witnesses"] == [
        {"degree": 0, "dual_sections": ["1", "0", "0"], "rank": 2}
    ]


# oracle requests with a first gap above 2, whose output (exit code and
# stdout) was recorded when every field was drawn and searched
_FIRST_GAP_ABOVE_TWO = [
    ["oracle", "--splitting=3,0", "--prime=5", "--mode=stable"],
    ["oracle", "--splitting=3,0", "--prime=2", "--mode=semistable", "--seed=7", "--format=text"],
    ["oracle", "--splitting=4,1,0", "--prime=3", "--mode=stable", "--seed=2"],
    ["oracle", "--splitting=7,2,1", "--prime=11", "--mode=semistable", "--seed=5",
     "--format=text"],
    ["oracle", "--splitting=5,0,0", "--prime=7", "--mode=semistable"],
    ["oracle", "--splitting=0,-3,-3", "--prime=13", "--mode=stable", "--seed=1", "--format=text"],
    ["oracle", "--splitting=1,-2", "--prime=1000000007", "--mode=semistable"],
    ["oracle", "--splitting=3000000,0", "--prime=5", "--mode=stable"],
]


def test_oracle_first_gap_above_two_draws_no_field(capsys, monkeypatch):
    # every field keeps the top summand there, so no field is drawn; drawing
    # one takes time linear in the gap, so a gap of 10^20 never answered
    def refuse(*args):
        raise AssertionError("a field drawn on a splitting that decides the verdict")

    monkeypatch.setattr(cohiggs.cli, "random_field", refuse)
    digest = hashlib.sha256()
    with deadline(2):
        for argv in _FIRST_GAP_ABOVE_TWO:
            code, out, _ = run(capsys, *argv)
            digest.update(f"{code}\0{out}\0".encode())
        code, out, _ = run(
            capsys, "oracle", "--splitting=99999999999999999999,0", "--prime=5", "--mode=stable"
        )
        model = run(
            capsys, "oracle", "--splitting=99999999999999999999,0", "--prime=5", "--mode=stable",
            "--model",
        )
    assert digest.hexdigest() == "a2ab36e438f8c2fb0f68124790e674d6c44773bc2aa6ddc367655b6eb669b7c5"
    assert code == 2 and json.loads(out)["witnesses"] == [
        {"degree": 99999999999999999999, "rank": 1, "sections": ["1", "0"]}
    ]
    # the model field keeps its gap error
    assert model[:2] == (1, "")
    assert model[2].endswith("has a gap above 2; a subdiagonal space is zero\n")


# fields of about 2 * 10^20 coefficients, none of them decided by the
# splitting alone; drawing one never answered
_OVERSIZED_DRAWS = [
    ["oracle", "--splitting=0,0,-99999999999999999999", "--prime=3", "--mode=stable"],
    ["oracle", "--splitting=1,-100000000000000000000,0", "--prime=3", "--mode=stable"],
    ["oracle", "--splitting=0,100000000000000000000,100000000000000000000", "--prime=1000003",
     "--mode=stable"],
]


@pytest.mark.parametrize("argv", _OVERSIZED_DRAWS, ids=" ".join)
def test_oracle_oversized_field_refused_before_any_draw(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("a coefficient drawn for an oversized field")

    monkeypatch.setattr(cohiggs.oracle, "random_poly", refuse)
    with deadline(2):
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.endswith(f"coefficients, above the bound {cohiggs.oracle.MAX_FIELD_COEFFS}\n")


def test_oracle_field_at_the_draw_bound_is_drawn(capsys, monkeypatch):
    # (2,0,-2) has 3 + 5 + 7 + 1 + 3 + 5 + 0 + 1 + 3 = 28 coefficients
    argv = ["oracle", "--splitting=2,0,-2", "--prime=5", "--mode=stable"]
    monkeypatch.setattr(cohiggs.oracle, "MAX_FIELD_COEFFS", 28)
    assert run(capsys, *argv)[0] in (0, 2)
    monkeypatch.setattr(cohiggs.oracle, "MAX_FIELD_COEFFS", 27)
    assert run(capsys, *argv) == (
        1, "", "cohiggs: error: a random field on 2,0,-2 has 28 coefficients, above the bound 27\n")


def test_oracle_draw_bound_pinned(capsys, monkeypatch):
    # 1,0,-G has 2G + 22 coefficients and 0,0,-G has 2G + 21: 2,500,000 is
    # drawn and 2,500,001 is refused
    def drawn(*args):
        raise LookupError("drawn")

    monkeypatch.setattr(cohiggs.oracle, "random_poly", drawn)
    with pytest.raises(LookupError):
        main(["oracle", "--splitting=1,0,-1249989", "--prime=3", "--mode=stable"])
    code, out, err = run(capsys, "oracle", "--splitting=0,0,-1249990", "--prime=3", "--mode=stable")
    assert (code, out) == (1, "")
    assert err.endswith("has 2500001 coefficients, above the bound 2500000\n")


def test_oracle_composite_modulus_rejected_quickly(capsys):
    # 1000000007 * 1000000009: trial division to its square root took minutes
    start = time.perf_counter()
    with deadline(30):
        code, _, err = run(
            capsys, "oracle", "--splitting", "1,0", "--prime", "1000000016000000063",
            "--mode", "stable",
        )
    assert code == 1 and "not prime" in err
    assert time.perf_counter() - start < 1


def test_oracle_rank_rejected_before_field_is_drawn(capsys):
    # the random field on this splitting has about 6M coefficients; drawing
    # it before the rank check took 3.7 s
    start = time.perf_counter()
    with deadline(30):
        code, out, err = run(
            capsys, "oracle", "--splitting", "2000000,0,0,0", "--prime", "5",
            "--mode", "stable",
        )
    assert (code, out) == (1, "")
    assert err == "cohiggs: error: oracle supports rank <= 3, got 4\n"
    assert time.perf_counter() - start < 1


# sha256 of the JSON output, recorded from the full +/- reflection closure,
# which took about 9.5 s on A100 and 3.1 s on D60; A200 was recorded from the
# tuple-by-tuple raising closure, which took about 3-4 s on it; B300, C300
# and D300 from one dot product per root of the packed closure, which took
# about 1.4 s and 297 MB on D300
@pytest.mark.parametrize("group,rank,digest", [
    ("A100", 100, "7894247d0adc4e8ad22b5d245b92e8d5cac8f88adbdbef071e91b3d4293d09d4"),
    ("D60", 60, "3e91d7112c7bb17ed6920cdb8168d7c1094b3b8c37c7fb4815bc83eb73ebbe81"),
    ("A200", 200, "73d08b72026eebaa788fbc3547cb24aabe6e88f741b3cabe8266e977f1cd193e"),
    ("B300", 300, "6cd84b7932b54f9649be5a6686262e3692a28c790b8ca97d1901c1462d10bd60"),
    ("C300", 300, "6cd84b7932b54f9649be5a6686262e3692a28c790b8ca97d1901c1462d10bd60"),
    ("D300", 300, "d5f52358bdac37998e94035f4da5a94cbfdf3793548a8af18689d8e71e63ec64"),
])
def test_criterion_large_group_answers_quickly(capsys, group, rank, digest):
    # the classical criterion path pairs no roots: with an empty root-system
    # cache it must answer in time and leave the cache empty
    build_root_system.cache_clear()
    start = time.perf_counter()
    with deadline(30):
        code, out, _ = run(
            capsys, "criterion", f"--group={group}", "--hn=" + ",".join(["0"] * rank),
            "--format=json",
        )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert time.perf_counter() - start < 3
    assert build_root_system.cache_info().currsize == 0


# sha256 of the JSON output for the values 0, 1, 2, 0, 1, 2, ..., recorded
# from one dot product per root of the packed closure
@pytest.mark.parametrize("group,digest", [
    ("A300", "2e8dbef5b42ef9ed45d482287bae2642d346f7c33b9145561d7b82ce1324260d"),
    ("B300", "b115d4f3d8d00f837fba7cf3ba4560ad93e57f5602a09ad7a81f49a5ecf22fd2"),
    ("C300", "2e0be2c70cf32c156f33906c567bba5889a967706c394baed5213ea5f8e7a1b5"),
    ("D300", "f543d447de11d753f94b19cd863d5e28b19a056ae37f3301296b91c9a8f87da6"),
])
def test_criterion_large_classical_adjoint_degrees_pinned(capsys, group, digest):
    with deadline(30):
        code, out, _ = run(
            capsys, "criterion", f"--group={group}",
            "--hn=" + ",".join(str(i % 3) for i in range(300)), "--format=json",
        )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_criterion_a300_memory_peak(capsys):
    # 44,850 root tuples of length 300 and their pairings peaked at about
    # 140 MB of traced allocations; the root values alone need a few MB
    build_root_system.cache_clear()
    tracemalloc.start()
    try:
        with deadline(30):
            code, _, _ = run(
                capsys, "criterion", "--group=A300", "--hn=" + ",".join(["0"] * 300),
                "--format=json",
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 32e6, f"traced peak {peak / 1e6:.1f} MB"


# A7000 would hold 49,007,000 root values; A6000, with 36,006,000, peaked
# near 1.9 GB, so the next size up ran out of memory part way through
_A7000_REFUSED = "cohiggs: error: A7000: 49007000 root values exceed the limit of 40000000\n"


@pytest.mark.parametrize("sub", ["criterion", "adjoint"])
def test_root_values_past_the_limit_refused_before_any_is_built(capsys, monkeypatch, sub):
    def refuse(*args):
        raise AssertionError("a root value built past the limit")

    monkeypatch.setattr(cohiggs.lie, "_positive_values", refuse)
    with deadline(2):
        result = run(capsys, sub, "--group=A7000", "--hn=" + ",".join(["0"] * 7000))
    assert result == (1, "", _A7000_REFUSED)


def test_root_value_limit_admits_its_own_count(capsys, monkeypatch):
    # A4 has 20 roots
    argv = ["criterion", "--group=A4", "--hn=0,1,2,3"]
    unpatched = run(capsys, *argv)
    assert unpatched[0] == 0
    monkeypatch.setattr(cohiggs.lie, "MAX_ROOT_VALUES", 20)
    assert run(capsys, *argv) == unpatched
    monkeypatch.setattr(cohiggs.lie, "MAX_ROOT_VALUES", 19)
    assert run(capsys, *argv) == (
        1, "", "cohiggs: error: A4: 20 root values exceed the limit of 19\n")


def test_root_value_limit_admits_a6000(monkeypatch):
    def built(*args):
        raise LookupError("built")

    monkeypatch.setattr(cohiggs.lie, "_positive_values", built)
    with deadline(2), pytest.raises(LookupError):
        main(["criterion", "--group=A6000", "--hn=" + ",".join(["0"] * 6000)])


def test_oracle_output_deterministic(capsys):
    args = ["oracle", "--splitting", "1,0,-1", "--prime", "7", "--mode", "stable", "--seed", "4"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_usage_error_leaves_the_shared_parser_intact(capsys):
    good = ["criterion", "--group", "C3xA1+z2", "--hn", "1,0,2,3", "--format", "json"]
    first = run(capsys, *good)
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "--group", "A2", "--hn", "1,1", "--bogus"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert run(capsys, *good) == first
    assert first[0] == 0 and json.loads(first[1])["admits_stable"] is False


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "--group", "A2"])  # missing --hn
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "--group", "A2", "--hn", "1,1", "--bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1


def test_domain_errors_exit_one(capsys):
    code, _, err = run(capsys, "criterion", "--group", "H9", "--hn", "1")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "criterion", "--group", "A2", "--hn", "1")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "oracle", "--splitting", "0,0,0,0", "--prime", "5", "--mode", "stable")
    assert code == 1
    code, _, err = run(capsys, "oracle", "--splitting", "0,0", "--prime", "6", "--mode", "stable")
    assert code == 1


def test_strata_rejects_central_length_before_any_root_values(capsys, monkeypatch):
    # the rows are lazy, so the check must run before any header or row
    def unreachable(*args):
        raise AssertionError("root values computed for a rejected request")

    monkeypatch.setattr(cohiggs.strata, "build_root_system", unreachable)
    cohiggs.strata._factor_table.cache_clear()
    for fmt in ("text", "json", "csv"):
        code, out, err = run(capsys, "strata", "--group=E7", "--central=1", f"--format={fmt}")
        assert (code, out) == (1, ""), fmt
        assert err == "cohiggs: error: expected 0 central degrees, got 1\n"


# top is the highest-root value at the all-2 vector: the first four groups
# overflow a byte with it, the rest do not, and every one is refused by its
# row count before any table is built
@pytest.mark.parametrize("group,top", [
    ("A128", 256), ("B65", 258), ("D66", 258), ("D300", 1194),
    ("A14", 28), ("A127", 254), ("C17xD7+z1", 66),
])
def test_strata_rejects_highest_root_past_a_byte(capsys, group, top):
    rank = parse_group(group).semisimple_rank
    start = time.perf_counter()
    with deadline(30):
        code, out, err = run(capsys, "strata", f"--group={group}")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, ""), top
    assert err == f"cohiggs: error: {group}: 3^{rank} strata exceed the limit of 3^12\n"


# ranks whose zero vector of values or central degrees cannot be built: past
# the address space it raised OverflowError, past the memory MemoryError,
# and A10000000 built its zero type for 0.9 s before the row limit refused
# it; any exception but ValueError leaves main as a traceback
@pytest.mark.parametrize("argv", [
    ["strata", "--group=A99999999999999999999"],
    ["strata", "--group=+z99999999999999999999"],
    ["criterion", "--group=+z99999999999999999999", "--hn="],
    ["adjoint", "--group=A1+z99999999999999999999", "--hn=1"],
    ["strata", "--group=+z1000000000000"],
    ["strata", "--group=A1000000000000"],
    ["criterion", "--group=+z1000000000000", "--hn="],
    ["strata", "--group=A10000000"],
])
def test_very_large_ranks_are_usage_errors(capsys, argv):
    with deadline(2):
        code, out, err = run(capsys, *argv)
    group = argv[1].partition("=")[2]
    assert (code, out) == (1, "")
    assert err.startswith(f"cohiggs: error: {group}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["criterion", "--group=A2", "--hn=1,5"],
    ["criterion", "--group=C3xA1+z2", "--hn=1,0,2,3", "--central=1,2"],
    ["criterion", "--group=+z2", "--hn=", "--central=1,-1"],
    ["adjoint", "--group=G2", "--hn=1,2"],
    ["adjoint", "--group=+z1", "--hn=", "--central=4"],
    ["glr-check", "--splitting=2,0,-1"],
    ["sp-check", "--half-degrees=2,1"],
    ["model-field", "--splitting=1,-1,-3", "--prime=5", "--seed=2"],
    ["oracle", "--splitting=1,0,-1", "--prime=7", "--mode=stable", "--seed=4"],
    ["oracle", "--splitting=1,0,-1", "--prime=3", "--mode=stable", "--seed=53"],
    ["oracle", "--splitting=1,1,0", "--prime=3", "--mode=semistable", "--seed=38"],
], ids=" ".join)
def test_json_text_matches_json_dumps(capsys, monkeypatch, argv):
    # slow reference: the indented encoder, on every payload shape the
    # commands print (empty lists, nested lists, bools, strings, witnesses)
    payloads = []
    monkeypatch.setattr(cohiggs.cli, "_emit_json", payloads.append)
    main([*argv, "--format=json"])
    (payload,) = payloads
    assert _json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)
    # strings as keys and as values: the escapes, DEL, a non-ASCII letter, a
    # line separator and a character outside the BMP (a surrogate pair)
    strings = ["", "key", '"', "\\", "\n\t\x00\x1f", "\x7f", "\u00e9", "\u2028", "\U0001F600"]
    mixed = {**payload, **{s: s for s in strings}, "strings": strings}
    assert _json_text(mixed) == json.dumps(mixed, sort_keys=True, indent=2)
    # a payload holds no other type: a float or None has no rendering
    for bad in (0.5, None):
        with pytest.raises(TypeError):
            _json_text({**payload, "z": [bad]})


class _Writes:
    def __init__(self):
        self.parts = []

    def write(self, s):
        self.parts.append(s)
        return len(s)


@pytest.mark.parametrize("chunk", [4, cohiggs.cli._CHUNK])
def test_emit_json_writes_long_lists_in_chunks(monkeypatch, chunk):
    # lists longer than one chunk, at the top and nested in a dict, next to
    # values that are written whole; the text is the indented encoder's
    monkeypatch.setattr(cohiggs.cli, "_CHUNK", chunk)
    n = 3 * chunk + 1
    payload = {
        "degrees": list(range(n, -n, -1)),
        "nested": {"ints": list(range(n)), "mixed": [True, 2, "x", [], {}] * n},
        "short": [1, 2],
        "empty": {},
        "flag": False,
    }
    out = _Writes()
    monkeypatch.setattr(cohiggs.cli.sys, "stdout", out)
    cohiggs.cli._emit_json(payload)
    assert "".join(out.parts) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # each write holds at most chunk pieces of at most chunk lines
    assert max(part.count("\n") for part in out.parts) <= chunk * chunk
    assert len(out.parts) > 2 if chunk == 4 else len(out.parts) == 2


@pytest.mark.parametrize("argv,digest", [
    (["criterion", "--group=A4", "--hn=0,1,2,3"],
     "a148b908233e5a34afefebf51f1380fe4940f2b7e73b1e868d7e625608ede3cf"),
    (["adjoint", "--group=A4", "--hn=0,1,2,3"],
     "98de2215d2c78941cc15b9c27588bedfcd63bb1c1ab93b75662e6821d5900966"),
], ids=["criterion", "adjoint"])
def test_text_degree_list_written_in_chunks(monkeypatch, argv, digest):
    # the 24 adjoint degrees of A4 in pieces of 4, at most 4 pieces a write;
    # the bytes were recorded when the line was printed as one string
    monkeypatch.setattr(cohiggs.cli, "_CHUNK", 4)
    out = _Writes()
    monkeypatch.setattr(cohiggs.cli.sys, "stdout", out)
    assert main(argv) == 0
    assert hashlib.sha256("".join(out.parts).encode()).hexdigest() == digest
    assert max(len(re.findall(r"-?\d+", part)) for part in out.parts) <= 16


def test_model_field_gap_error(capsys):
    code, _, err = run(capsys, "model-field", "--splitting", "3,0", "--prime", "5")
    assert code == 1
    assert err == "cohiggs: error: splitting 3,0 has a gap above 2; a subdiagonal space is zero\n"


_OPTION_TABLE = {
    "criterion": ({"--central", "--group", "--hn"}, ("text", "json"), "text"),
    "adjoint": ({"--central", "--group", "--hn"}, ("text", "json"), "text"),
    "strata": ({"--central", "--group"}, ("text", "json", "csv"), "text"),
    "glr-check": ({"--splitting"}, ("text", "json"), "text"),
    "sp-check": ({"--half-degrees"}, ("text", "json"), "text"),
    "model-field": ({"--prime", "--seed", "--splitting"}, ("text", "json"), "text"),
    "oracle": ({"--mode", "--model", "--prime", "--seed", "--splitting"}, ("json", "text"), "json"),
}


def test_option_table_pinned():
    # long options, --format choices and --format default of every subcommand;
    # the strict parser's table gives argparse's options, choices, defaults,
    # types, required flags, flags and handler
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(subparsers.choices) == set(_OPTION_TABLE) == set(cohiggs.cli._COMMANDS)
    for name, (options, choices, default) in _OPTION_TABLE.items():
        parser = subparsers.choices[name]
        actions = parser._actions
        longs = {o for a in actions for o in a.option_strings if o.startswith("--")}
        assert longs == options | {"--format", "--help"}, name
        (fmt,) = [a for a in actions if "--format" in a.option_strings]
        assert (tuple(fmt.choices), fmt.default) == (choices, default), name
        func, _, strict = cohiggs.cli._COMMANDS[name]
        assert parser.get_default("func") is func
        assert set(strict) == options | {"--format"}, name
        for a in actions:
            if "--help" in a.option_strings:
                continue
            (option,) = a.option_strings
            kwargs = strict[option]
            assert a.dest == option[2:].replace("-", "_")
            assert (a.choices, a.default, a.type, a.required) == (
                kwargs.get("choices"), kwargs.get("default"), kwargs.get("type"),
                kwargs.get("required", False),
            ), (name, option)
            assert isinstance(a, argparse._StoreTrueAction) == (
                kwargs.get("action") == "store_true"
            ), (name, option)


def _exit_code(argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


# help at the top and for each subcommand, and usage errors.  The strict
# parser answers a missing option (criterion --group=A2) and a value its
# type refuses (--prime=x, --splitting=1,x) itself, in argparse's words;
# argparse answers the rest: help, an unknown option, a bad choice, a value
# for a flag, and the forms the strict parser leaves to it (an
# abbreviation, a repeated option, a negative value in the space form)
_HELP_AND_USAGE_ERRORS = [
    ["--help"],
    *([name, "--help"] for name in _OPTION_TABLE),
    ["criterion", "--group=A2", "--hn=1,1", "--bogus"],
    ["criterion", "--group=A2"],
    ["oracle", "--splitting=1,0", "--prime=x", "--mode=stable"],
    ["glr-check", "--splitting=1,x"],
    ["oracle", "--splitting=1,0", "--prime=5", "--mode=fast"],
    ["oracle", "--splitting=1,0", "--prime=5", "--mode=stable", "--model=x"],
    ["glr-check", "--spl=2,0"],
    ["oracle", "--splitting=1,0", "--prime=5", "--prime=7", "--mode=stable"],
    ["criterion", "--group", "A1xA1", "--hn", "-1,2"],
]


def test_help_and_argparse_only_forms_pinned(capsys, monkeypatch):
    # sha256 over the exit code, stdout and stderr of each, in order,
    # recorded when argparse parsed every argv; help wraps to COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in _HELP_AND_USAGE_ERRORS:
        code = _exit_code(argv)
        out, err = capsys.readouterr()
        digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == "40978bb3b62d23027d9a3d3a17955e627b012af55cd3ef87c2de22012fd7e3a9"


def test_well_formed_requests_import_neither_argparse_nor_gettext():
    # a fresh interpreter, since the test run itself has loaded them all;
    # one request per subcommand, in both value forms, passed as plain argv
    # strings so that the child imports nothing the package does not; the
    # forbidden set is checked after the import and after the requests
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    requests = [
        ["criterion", "--group=A2+z1", "--hn=1,1", "--central=3", "--format=json"],
        ["adjoint", "--group", "G2", "--hn", "1,2"],
        ["strata", "--group=A1xA1", "--format", "csv"],
        ["glr-check", "--splitting", "2,0,-1"],
        ["sp-check", "--half-degrees=2,1"],
        ["model-field", "--splitting=1,-1", "--prime", "5", "--seed=2"],
        ["oracle", "--splitting=1,-1", "--prime=5", "--mode", "stable", "--model"],
    ]
    code = (
        "import io, sys; sys.path.insert(0, sys.argv[1]); import cohiggs, cohiggs.cli; "
        "forbidden = {'argparse', 'gettext', 'fractions', 'decimal', 'numbers', 'json'}; "
        "imported = sorted(forbidden & set(sys.modules)); "
        "sys.stdout = io.StringIO(); "
        "codes = [cohiggs.cli.main(request.split(' ')) for request in sys.argv[2:]]; "
        "sys.stdout = sys.__stdout__; "
        "print(codes, imported, sorted(forbidden & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src, *map(" ".join, requests)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[0, 0, 0, 0, 0, 0, 0] [] []\n"


def test_strict_usage_errors_import_neither_argparse_nor_gettext():
    # a fresh interpreter, as above: a value its type refuses and a missing
    # option exit 1 with argparse's line, which the strict parser writes
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    requests = [
        ["glr-check", "--splitting=1,x"],
        ["oracle", "--splitting=1,0", "--prime=x", "--mode=stable"],
        ["criterion", "--group=A2"],
    ]
    code = (
        "import io, sys; sys.path.insert(0, sys.argv[1]); import cohiggs.cli\n"
        "codes, sys.stderr = [], io.StringIO()\n"
        "for request in sys.argv[2:]:\n"
        "    try:\n"
        "        codes.append(cohiggs.cli.main(request.split(' ')))\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "err, sys.stderr = sys.stderr.getvalue(), sys.__stderr__\n"
        "print(codes, sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
        "print(err, end='')"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src, *map(" ".join, requests)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == (
        "[1, 1, 1] []\n"
        "cohiggs glr-check: error: argument --splitting: expected comma-separated integers,"
        " got '1,x'\n"
        "cohiggs oracle: error: argument --prime: invalid int value: 'x'\n"
        "cohiggs criterion: error: the following arguments are required: --hn\n"
    )


def test_output_is_independent_of_the_hash_seed():
    # one fresh interpreter per PYTHONHASHSEED, each running the seven
    # determinism requests in process; -S but not -I, which ignores the seed
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    requests = [
        ["criterion", "--group=C3xA1+z2", "--hn=1,0,2,3", "--central=1,2", "--format=json"],
        ["strata", "--group=A2xB2+z1", "--central=1", "--format=json"],
        ["oracle", "--splitting=1,0,-1", "--prime=7", "--mode=stable", "--seed=4"],
        ["oracle", "--splitting=1,1,0", "--prime=3", "--mode=semistable", "--seed=38"],
        ["adjoint", "--group=E6", "--hn=1,0,2,1,0,1", "--format=json"],
        ["sp-check", "--half-degrees=2,1,0", "--format=json"],
        ["model-field", "--splitting=2,0,-2", "--prime=5", "--seed=3", "--format=json"],
    ]
    code = (
        "import contextlib, io, json, sys; sys.path.insert(0, sys.argv[1]); import cohiggs.cli\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        runs.append((cohiggs.cli.main(argv), out.getvalue(), err.getvalue()))\n"
        "print(json.dumps([hash('cohiggs'), runs]))"
    )

    def under(seed):
        done = subprocess.run(
            [sys.executable, "-S", "-c", code, src, json.dumps(requests)],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True, timeout=120,
        )
        return json.loads(done.stdout)

    (hash0, runs0), (hash1, runs1) = under("0"), under("12345")
    assert hash0 != hash1  # the seed took effect
    assert [exit for exit, _, _ in runs0] == [0, 0, 0, 2, 0, 0, 0]
    assert all(out and not err for _, out, err in runs0)
    assert runs0 == runs1


# values for each option: well-formed ones first, then ones argparse
# refuses or reads differently (a leading "-", a bad int or a bad choice)
_FUZZ_VALUES = {
    "--group": (["A1", "A2", "G2", "B3", "A1xA1+z1", "C2+z2", "+z1"], ["H9", "", "-A1"]),
    "--hn": (["1", "0,2", "1,1", "2,0,1", ""], ["1,x", "1,,2", "-1,2", "x"]),
    "--central": (["1", "0,-2", "3", ""], ["-1", "1,y"]),
    "--splitting": (["1,0", "2,0,-1", "1,-1", "3,0", "2,2,1", "1"], ["-1,0", "1,x", "0.5"]),
    "--half-degrees": (["2,1", "1", "2,1,0", "0,0"], ["-1", "a"]),
    # primes stay at 1000 or below: the large-prime hang of poly.roots
    # (ROADMAP item 2) is left out of this fuzzer
    "--prime": (["2", "3", "5", "7", "13", "997"], ["4", "0", "x", "-5", "1e3"]),
    "--mode": (["stable", "semistable"], ["fast", "Stable"]),
    "--seed": (["0", "1", "17", "38"], ["-3", "s", "1.0"]),
    "--format": (["text", "json", "csv"], ["xml", ""]),
}


def _fuzz_argv(rng):
    """A random argv drawn from the option table: each option given
    exactly, abbreviated, repeated or left out, in either value form."""
    name = rng.choice(list(cohiggs.cli._COMMANDS))
    options = cohiggs.cli._COMMANDS[name][2]
    parts = []
    for option, kwargs in options.items():
        spelling = option
        if rng.random() < 0.04:
            continue  # a missing option
        if rng.random() < 0.04:
            spelling = option[: rng.randint(3, len(option) - 1)]  # abbreviated
        if kwargs.get("action") == "store_true":
            parts.append([spelling + ("=x" if rng.random() < 0.1 else "")])
            continue
        good, bad = _FUZZ_VALUES[option]
        for _ in range(2 if rng.random() < 0.04 else 1):  # maybe repeated
            value = rng.choice(bad if rng.random() < 0.08 else good)
            parts.append([f"{spelling}={value}"] if rng.random() < 0.5 else [spelling, value])
    for extra in (["--bogus=1"], ["--"], ["-h"], ["--help"], ["stray"]):
        if rng.random() < 0.02:
            parts.append(extra)
    rng.shuffle(parts)
    return [name, *(token for part in parts for token in part)]


# the first fault decides the message: a bad value before a bad choice, an
# ambiguous abbreviation (argparse sees that before any value), a missing
# option or a second bad value, a bad choice and an abbreviation before a
# bad value, and a bad value before a repeated option or a negative
# space-form value, which leave the argv to argparse
_ORDERED_FAULTS = [
    (["oracle", "--splitting=1,x", "--mode=fast", "--prime=5"],
     "argument --splitting: expected comma-separated integers, got '1,x'"),
    (["oracle", "--mode=fast", "--splitting=1,x", "--prime=5"],
     "argument --mode: invalid choice: 'fast' (choose from 'stable', 'semistable')"),
    (["oracle", "--splitting=1,x", "--s=3", "--prime=5", "--mode=stable"],
     "ambiguous option: --s=3 could match --splitting, --seed"),
    (["oracle", "--s=3", "--splitting=1,x", "--prime=5", "--mode=stable"],
     "ambiguous option: --s=3 could match --splitting, --seed"),
    (["oracle", "--splitting", "1,x", "--prime", "5"],
     "argument --splitting: expected comma-separated integers, got '1,x'"),
    (["oracle", "--prime=5"],
     "the following arguments are required: --splitting, --mode"),
    (["oracle", "--prime=y", "--splitting=1,x", "--mode=stable"],
     "argument --prime: invalid int value: 'y'"),
    (["model-field", "--seed", "s", "--prime", "p", "--splitting", "1,0"],
     "argument --seed: invalid int value: 's'"),
    (["criterion", "--hn= 1, x ", "--hn=1", "--group=A2"],
     "argument --hn: expected comma-separated integers, got '1, x'"),
    (["criterion", "--hn=1,x", "--group", "A2", "--central", "-1"],
     "argument --hn: expected comma-separated integers, got '1,x'"),
]


@pytest.mark.parametrize("argv, message", _ORDERED_FAULTS)
def test_first_fault_in_argv_order(capsys, argv, message):
    assert _exit_code(argv) == 1
    assert capsys.readouterr() == ("", f"cohiggs {argv[0]}: error: {message}\n")


def test_strict_parser_agrees_with_argparse_on_fuzzed_argvs(capsys, monkeypatch):
    # main must give every argv the exit code, stdout and stderr it gives
    # when argparse parses every argv, so each error line the strict parser
    # writes is argparse's byte for byte; an argv the strict parser accepts
    # must get argparse's attributes, and every argv must exit 0, 1 or 2
    rng = random.Random(20250)
    argvs = [_fuzz_argv(rng) for _ in range(400)]
    accepted = refused = 0

    def outcome(argv):
        code = _exit_code(argv)
        return (code, *capsys.readouterr())

    with deadline(180):
        for argv in [*argvs, *(argv for argv, _ in _ORDERED_FAULTS)]:
            try:
                strict = cohiggs.cli._parse_strict(argv)
            except SystemExit:
                strict = None
                refused += 1
            if strict is not None:
                accepted += 1
                assert vars(strict) == vars(build_parser().parse_args(argv)), argv
            capsys.readouterr()
            got = outcome(argv)
            with monkeypatch.context() as m:
                m.setattr(cohiggs.cli, "_parse_strict", lambda argv: None)
                assert outcome(argv) == got, argv
            assert got[0] in (0, 1, 2), argv
    assert 0.2 * len(argvs) < accepted < 0.8 * len(argvs)
    assert refused > 0.05 * len(argvs)


# a well-formed request per subcommand, as {option: value}
_WELL_FORMED = {
    "criterion": {"--group": "A2", "--hn": "1,1"},
    "adjoint": {"--group": "A2", "--hn": "1,1"},
    "strata": {"--group": "A2"},
    "glr-check": {"--splitting": "1,0"},
    "sp-check": {"--half-degrees": "2,1"},
    "model-field": {"--splitting": "1,0", "--prime": "5"},
    "oracle": {"--splitting": "1,0", "--prime": "5", "--mode": "stable"},
}


def _spellings(option, options):
    # the option in full, and its shortest abbreviation that no other
    # option (--help included) shares, when it has one
    others = [o for o in [*options, "--help"] if o != option]
    for end in range(3, len(option)):
        if not any(o.startswith(option[:end]) for o in others):
            return [option, option[:end]]
    return [option]


def test_double_dash_value_in_equals_form_is_a_usage_error(capsys, monkeypatch):
    # argparse drops the value "--" of "--NAME=--" and stores []: every
    # option must refuse it with one line, full name or abbreviated,
    # first or last in the argv, as argparse alone does
    assert set(_WELL_FORMED) == set(cohiggs.cli._COMMANDS)
    cases = 0
    for name, (_, _, options) in cohiggs.cli._COMMANDS.items():
        assert _exit_code([name, *(f"{o}={v}" for o, v in _WELL_FORMED[name].items())]) == 0
        capsys.readouterr()
        for option, kwargs in options.items():
            if kwargs.get("action") == "store_true":
                message = f"argument {option}: ignored explicit argument '--'"
            else:
                message = f"argument {option}: expected one argument"
            rest = [f"{o}={v}" for o, v in _WELL_FORMED[name].items() if o != option]
            for spelling in _spellings(option, options):
                for argv in ([name, f"{spelling}=--", *rest], [name, *rest, f"{spelling}=--"]):
                    assert cohiggs.cli._parse_strict(argv) is None, argv
                    assert _exit_code(argv) == 1, argv
                    expected = ("", f"cohiggs {name}: error: {message}\n")
                    assert capsys.readouterr() == expected, argv
                    with monkeypatch.context() as m:
                        m.setattr(cohiggs.cli, "_parse_strict", lambda argv: None)
                        assert _exit_code(argv) == 1, argv
                        assert capsys.readouterr() == expected, argv
                    cases += 1
    # 25 options and 21 abbreviations: none for --hn, beside --help, nor for
    # --mode and --model, one a prefix of the other
    assert cases == 2 * (25 + 21)


def test_oracle_gap_one_answers_at_a_large_prime(capsys):
    # rank 2 with a gap of 1: lines above m_1 = 0 lie in O(1), and the
    # threshold is 1 in both modes, so only the top-summand test runs and
    # no eigenvalue scan tries every t < p
    phi = random_field(SplittingType((1, 0)), PrimeField(1000000000039))
    verdict = "FAILS" if phi.entries[1][0].is_zero else "PASSES"
    for mode in ("stable", "semistable"):
        with deadline(2):
            code, out, _ = run(
                capsys, "oracle", "--splitting=1,0", "--prime=1000000000039", f"--mode={mode}"
            )
        assert code == (2 if verdict == "FAILS" else 0), (mode, out)
        assert json.loads(out)["verdict"] == verdict
