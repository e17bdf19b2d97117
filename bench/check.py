"""Correctness gate: the invariants every op's output must satisfy.

Expected values are derived here from the generated inputs alone (group
dimensions, gaps, slopes), never by calling ``cohiggs``.  ``check_op``
returns an error message or None, plus the op's verdict, which
``check_pairs`` compares across paired ops.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import product

from workloads import Op, group_dim, group_string

EXIT_OK, EXIT_REJECT, EXIT_FAILS = 0, 1, 2


class Mismatch(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def check_op(op: Op, code, out: str, err: str):
    """(error or None, verdict) for one op's exit code and output."""
    try:
        if op.reject:
            expect(code == EXIT_REJECT, f"must-reject input exited {code!r}, expected 1")
            expect(out == "" and err != "", "a rejection prints only to stderr")
            return None, None
        if op.kind in ("oracle", "oracle-lib"):
            return None, _check_oracle(op, code, out)
        expect(code == EXIT_OK, f"exited {code!r}, expected 0: {err.strip()[-200:]}")
        expect(err == "", f"unexpected stderr: {err.strip()[-200:]}")
        return None, _CHECKS[op.kind](op, out)
    except Mismatch as exc:
        return str(exc), None
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # unparsable output
        return f"malformed output: {type(exc).__name__}: {exc}", None


def check_pairs(ops: list[Op], verdicts: list) -> dict[int, str]:
    """Errors keyed by op index where an op disagrees with its partner."""
    errors = {}
    for i, op in enumerate(ops):
        if op.pair is None or verdicts[i] is None or verdicts[op.pair] is None:
            continue
        mine, theirs = verdicts[i], verdicts[op.pair]
        if op.kind == "oracle-lib":
            by_mode = {op.info["mode"]: mine, ops[op.pair].info["mode"]: theirs}
            if by_mode["semistable"] == "FAILS" and by_mode["stable"] != "FAILS":
                errors[i] = "semistable-mode FAILS but stable-mode PASSES on the same field"
        elif mine != theirs:
            errors[i] = f"criterion says {mine}, {ops[op.pair].kind} says {theirs}"
    return errors


def _split_values(factors, values):
    out, k = [], 0
    for f in factors:
        n = int(f[1:])
        out.append(values[k:k + n])
        k += n
    return out


def _check_adjoint(degrees: list[int], op: Op) -> None:
    dim = group_dim(op.info["factors"], op.info["central"])
    expect(len(degrees) == dim, f"{len(degrees)} adjoint degrees, expected dim(G) = {dim}")
    expect(sum(degrees) == 0, "adjoint degrees do not sum to 0")
    expect(all(a >= b for a, b in zip(degrees, degrees[1:])), "adjoint degrees not decreasing")
    expect(degrees == [-d for d in reversed(degrees)], "adjoint degrees not symmetric")


def _criterion_expected(op: Op):
    values = op.info["values"]
    admits = max(values, default=0) <= 2
    obstruction = [
        (k, i, v)
        for k, vec in enumerate(_split_values(op.info["factors"], values))
        for i, v in enumerate(vec)
        if v >= 3
    ]
    return admits, obstruction


def _check_criterion(op: Op, out: str) -> bool:
    admits, obstruction = _criterion_expected(op)
    if "--format=json" in op.args:
        doc = json.loads(out)
        got_obstruction = [(o["factor"], o["root"], o["value"]) for o in doc["obstruction"]]
        got_admits, degrees = doc["admits_stable"], doc["adjoint_degrees"]
    else:
        lines = out.splitlines()
        expect(lines[0] == f"group: {group_string(op.info['factors'], op.info['central'])}",
               f"wrong group line {lines[0]!r}")
        expect(lines[1] == "simple-root values: " + ",".join(map(str, op.info["values"])),
               f"wrong values line {lines[1]!r}")
        expect(lines[2] in ("admits_stable: true", "admits_stable: false"), "no verdict line")
        got_admits = lines[2].endswith("true")
        got_obstruction = []
        for line in lines[3:-1]:
            words = line.split()  # obstruction: factor K simple root I value V
            got_obstruction.append((int(words[2]), int(words[5]), int(words[7])))
        expect(lines[-1].startswith("adjoint splitting: "), "no adjoint line")
        degrees = [int(d) for d in lines[-1].split(": ")[1].split(",")]
    expect(got_admits == admits, f"admits_stable {got_admits}, max simple value says {admits}")
    expect(got_obstruction == obstruction, f"obstruction {got_obstruction}, expected {obstruction}")
    _check_adjoint(degrees, op)
    return got_admits


def _check_adjoint_cmd(op: Op, out: str) -> None:
    if "--format=json" in op.args:
        degrees = json.loads(out)["adjoint_degrees"]
    else:
        degrees = [int(d) for d in out.strip().split(",")]
    _check_adjoint(degrees, op)


def _check_glr(op: Op, out: str) -> bool:
    degrees = op.info["degrees"]
    gaps = [a - b for a, b in zip(degrees, degrees[1:])]
    admits = max(gaps, default=0) <= 2
    st = ",".join(map(str, degrees))
    if "--format=json" not in op.args:
        verdict = "a semistable co-Higgs field exists (generic one is stable)" if admits \
            else "no semistable co-Higgs field exists"
        expect(out == f"splitting {st}: {verdict}\n", f"wrong text {out!r}")
        return admits
    doc = json.loads(out)
    expect(doc["splitting"] == list(degrees), f"splitting {doc['splitting']}, expected {degrees}")
    expect(doc["admits_semistable"] == admits, f"admits_semistable {doc['admits_semistable']}")
    expect(doc["hn"] == gaps, f"hn {doc['hn']}, expected the gaps {gaps}")
    if len(degrees) > 1:  # a pure torus has no factor to name
        expect(doc["group"] == f"A{len(degrees) - 1}+z1", f"group {doc['group']!r}")
    return admits


def _check_sp(op: Op, out: str) -> bool:
    half = op.info["half"]
    r = len(half)
    gaps = [half[i] - half[i + 1] for i in range(r - 1)] + [2 * half[-1]]
    admits = max(gaps) <= 2
    group, hn = ("A1", [2 * half[0]]) if r == 1 else (f"C{r}", gaps)
    if "--format=json" not in op.args:
        verdict = ("a stable co-Higgs field exists" if admits
                   else "no semistable co-Higgs field exists")
        expect(out == f"half-degrees {','.join(map(str, half))} ({group}): {verdict}\n",
               f"wrong text {out!r}")
        return admits
    doc = json.loads(out)
    expect(doc["half_degrees"] == list(half), "half_degrees changed")
    expect(doc["full_degrees"] == list(half) + [-e for e in reversed(half)],
           "full_degrees not palindromic")
    expect(doc["admits_stable"] == admits, f"admits_stable {doc['admits_stable']}")
    expect(doc["group"] == group and doc["hn"] == hn, f"group {doc['group']} hn {doc['hn']}")
    return admits


def _check_strata(op: Op, out: str) -> None:
    factors = op.info["factors"]
    rank = sum(int(f[1:]) for f in factors)
    if "--format=json" in op.args:
        rows = [(tuple(r["a"]), r["dim_VM"], r["dim_aut"], r["dim_stratum"], r["generic"])
                for r in json.loads(out)]
    else:
        reader = csv.reader(io.StringIO(out))
        expect(next(reader) == ["a", "dim_VM", "dim_aut", "dim_stratum", "generic"], "bad header")
        rows = [(tuple(int(v) for v in a.split(",")), int(vm), int(aut), int(ds), g == "true")
                for a, vm, aut, ds, g in reader]
    expect(len(rows) == 3**rank, f"{len(rows)} strata, expected 3^{rank}")
    expect([r[0] for r in rows] == list(product(range(3), repeat=rank)),
           "strata not in lexicographic order of their values")
    two_dim = 2 * group_dim(factors, op.info["central"])
    for a, vm, aut, ds, generic in rows:
        expect(vm - aut == ds, f"stratum {a}: dim_VM - dim_aut != dim_stratum")
        expect(generic == (max(a) == 0), f"stratum {a}: wrong generic flag")
        expect(not generic or ds == two_dim, f"generic stratum has dimension {ds}, not {two_dim}")


def _check_oracle(op: Op, code, out: str) -> str:
    degrees, p, mode = op.info["degrees"], op.info["prime"], op.info["mode"]
    expect(code in (EXIT_OK, EXIT_FAILS), f"exited {code!r}, expected 0 or 2")
    doc = json.loads(out)
    verdict = doc["verdict"]
    expect((verdict == "PASSES") == (code == EXIT_OK), f"verdict {verdict} with exit {code}")
    mu = Fraction(sum(degrees), len(degrees))
    expect(doc["mode"] == mode and doc["field"] == f"F{p}", "wrong mode or field")
    expect(doc["slope"] == str(mu), f"slope {doc['slope']}, expected {mu}")
    if op.kind == "oracle":
        seed = int(next(a for a in op.args if a.startswith("--seed="))[7:])
        expect(doc["seed"] == seed and doc["model"] is False, "wrong seed or model flag")
    gaps = [a - b for a, b in zip(degrees, degrees[1:])]
    expect(max(gaps) <= 2 or verdict == "FAILS", f"gap above 2 but {verdict}")
    expect((verdict == "FAILS") == bool(doc["witnesses"]), "witnesses do not match the verdict")
    for w in doc["witnesses"]:
        slope = Fraction(w["degree"], w["rank"])
        expect(slope >= mu if mode == "stable" else slope > mu,
               f"witness of degree {w['degree']} and rank {w['rank']} is below the threshold")
    return verdict


_CHECKS = {
    "criterion": _check_criterion,
    "adjoint": _check_adjoint_cmd,
    "glr-check": _check_glr,
    "sp-check": _check_sp,
    "strata": _check_strata,
}
