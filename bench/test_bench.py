"""Tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_workloads_have_enough_ops_for_p90():
    for workload in workloads.WORKLOADS:
        assert len(workloads.generate(workload, 1)) >= 100


def test_self_times_on_a_synthetic_tree():
    # span 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 7]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    assert tracing.self_times(parents, starts, ends) == [3.0, 3.0, 3.0, 1.0]
    names = ["x", "y", "x", "y"]
    assert tracing.layer_totals(names, parents, starts, ends) == {"x": (2, 6.0), "y": (2, 4.0)}
    assert tracing.count_under(names, parents, "y", "x") == 2
    assert tracing.count_under(names, parents, "x", "y") == 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _cli(argv):
    from cohiggs.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_gate_accepts_real_output_and_rejects_corrupted_output():
    op = next(op for op in workloads.generate("criterion", 3)
              if op.kind == "criterion" and "--format=json" in op.args)
    code, out, err = _cli(op.args)
    assert check.check_op(op, code, out, err)[0] is None
    doc = json.loads(out)
    doc["adjoint_degrees"][0] += 1
    assert check.check_op(op, code, json.dumps(doc), err)[0]
    doc = json.loads(out)
    doc["admits_stable"] = not doc["admits_stable"]
    assert check.check_op(op, code, json.dumps(doc), err)[0]
    assert check.check_op(op, 1, out, err)[0]  # wrong exit class


def test_gate_rejects_corrupted_strata_and_oracle_output():
    op = next(op for op in workloads.generate("strata", 3)
              if "--format=csv" in op.args and len(op.info["factors"]) == 1)
    code, out, err = _cli(op.args)
    assert check.check_op(op, code, out, err)[0] is None
    lines = out.splitlines(keepends=True)
    assert check.check_op(op, code, "".join(lines[:-1]), err)[0]  # a stratum missing

    op = next(op for op in workloads.generate("oracle-certify", 3) if op.kind == "oracle")
    code, out, err = _cli(op.args)
    assert check.check_op(op, code, out, err)[0] is None
    doc = json.loads(out)
    doc |= {"verdict": "FAILS", "witnesses": [{"rank": 1, "degree": -100}]}
    assert check.check_op(op, 2, json.dumps(doc), err)[0]  # witness below the threshold


def test_gate_requires_exit_1_on_must_reject_inputs():
    op = next(op for op in workloads.generate("criterion", 3) if op.reject)
    code, out, err = _cli(op.args)
    assert check.check_op(op, code, out, err)[0] is None
    assert check.check_op(op, 0, "{}", "")[0]


def test_pairs_must_agree():
    ops = workloads.generate("criterion", 3)
    i = next(i for i, op in enumerate(ops) if op.pair is not None)
    verdicts = [None] * len(ops)
    verdicts[i], verdicts[ops[i].pair] = True, False
    assert i in check.check_pairs(ops, verdicts)


def test_semistable_fails_must_imply_stable_fails():
    ops = workloads.generate("oracle-sweep", 3)
    i = next(i for i, op in enumerate(ops) if op.pair is not None)
    verdicts = [None] * len(ops)
    verdicts[i] = verdicts[ops[i].pair] = "FAILS"
    assert check.check_pairs(ops, verdicts) == {}
    by_mode = {ops[i].info["mode"]: i, ops[ops[i].pair].info["mode"]: ops[i].pair}
    verdicts[by_mode["stable"]] = "PASSES"
    assert i in check.check_pairs(ops, verdicts)


def test_ceiling_turns_a_cut_pass_into_failed_ops(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "CEILING_S", 0.3)
    cut = run.Run("strata", 1, 0, False, str(tmp_path))
    cut.capture()
    assert cut.broken and cut.failed > 0 and "not completed" in cut.errors.values()


def test_machine_info_is_recorded():
    info = run.machine_info()
    assert set(info) == {"python", "nproc", "cpu"}
    assert info["nproc"] >= 1 and info["python"].count(".") == 2


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_end_to_end(trace, capsys):
    code = run.main(["--workload", "oracle-sweep", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert lines[0].startswith("machine: python ")
    wanted = [name for name, _, _ in tracing.PER_LAYER] if trace else \
        [name for name, _ in run.END_TO_END]
    assert sorted(result["metrics"]) == sorted(wanted)
    if trace:
        assert result["metrics"]["oracle.semistability_oracle.calls"]["value"] > 0
