"""Benchmark of the cohiggs CLI and library: end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of criterion, strata, oracle-certify, oracle-sweep, or ``all``
to run the four in turn.  Run from the repository root; the package is
imported from ``src/``.

Load comes from this one process, a closed loop with a single client: each
pass of a workload runs its seeded op list, one op after another, in a fresh
interpreter (bench/worker.py), so every pass starts with empty caches as a
real ``cohiggs`` invocation does.  An op is one in-process call of
``cohiggs.cli.main(argv)`` or one ``semistability_oracle`` call.

Every run first makes a capture pass whose output the correctness gate
checks op by op (bench/check.py) and, for recorded seeds, against the golden
digest (bench/golden.json).  Then, until S seconds are used:

- ``--trace 0``: timed passes with output only hashed; reports set-up time,
  wall time of the op list, p50/p90 op latency and peak RSS of a pass;
- ``--trace 1``: untraced and traced passes in turn; reports the per-layer
  metrics of bench/tracing.py and the tracing overhead.

The speed of a shared VM drifts by up to 40% over minutes, so besides the
raw times (``setup_raw_s``, ``wall_s``, ``latency_p50_ms``,
``latency_p90_ms``, printed) the run reports reference-speed times
(``setup_s`` and ``*_ref_*``): each time multiplied by PROBE_REF_S over the
median of a speed probe, a fixed loop the worker runs around the import and
between ops.  The JSON result carries peak RSS and the reference-speed
times.  Each figure is the median over the run's passes (set
up is also sampled in set-up-only interpreters between passes); latency
percentiles are taken over the per-op medians.

Any op that raises, exits in the wrong class, fails a check, differs from
the capture pass or is cut by the per-pass ceiling counts as failed; the
last stdout line is the JSON result, and the exit code is 1 if anything
failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CEILING_S = 60  # per pass; a pass cut here reports its unfinished ops as failed
SETUPS_PER_PASS = 2  # set-up-only interpreters started before each timed pass
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("latency_p50_ref_ms", "ms"),
    ("latency_p90_ref_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Printed with the metrics above but not reported to BENCHMARK.json: the raw
# times, which drift with the machine's speed, and the speed probe itself.
RAW = (
    ("setup_raw_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("probe_ms", "ms"),
)
# Speed-probe time that the reference-speed ("_ref") times are scaled to: the
# median probe on a 2-vCPU Intel Xeon VM with Python 3.11.7.
PROBE_REF_S = 0.00135


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


class Pass:
    """The outcome of one worker process."""

    def __init__(self, mode: str, workload: str, seed: int, prefix: str) -> None:
        env = dict(os.environ, PYTHONHASHSEED="0", COLUMNS="80", LINES="24")
        env.pop("PYTHONPATH", None)
        cmd = [sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed), prefix]
        self.prefix = prefix
        self.error = None
        self.summary: dict = {}
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CEILING_S)
        except subprocess.TimeoutExpired:
            self.error = f"{mode} pass cut at the {CEILING_S} s ceiling"
        else:
            if proc.returncode == 0:
                self.summary = json.loads(proc.stdout.splitlines()[-1])
            else:
                self.error = f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        self.records = []
        if mode != "setup" and os.path.exists(prefix + ".ops"):
            with open(prefix + ".ops") as f:
                for line in f:
                    if line.endswith("\n"):  # a cut pass can leave half a line
                        code, latency, digest = line.rstrip("\n").split("\t")
                        self.records.append((code, float(latency), digest))


def _code(text: str):
    return int(text) if text.lstrip("-").isdigit() else text


def _ref_wall(passes: list[Pass]) -> float:
    return statistics.median(p.summary["wall_s"] * PROBE_REF_S / p.summary["probe_s"]
                             for p in passes)


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, q in 10..90, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=10)[q // 10 - 1]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.tmp = tmp
        self.ops = workloads.generate(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.errors: dict[int, str] = {}  # op index -> first failure seen
        self.broken: list[str] = []  # passes that crashed or hit the ceiling
        self.passes: dict[str, list[Pass]] = {"run": [], "trace": []}
        self.count = 0

    def _pass(self, mode: str) -> Pass:
        p = Pass(mode, self.workload, self.seed, os.path.join(self.tmp, f"pass{self.count}"))
        self.count += 1
        if p.error:
            self.broken.append(p.error)
        self.attempted += len(self.ops)
        return p

    def _tally(self, failures: dict[int, str]) -> None:
        self.failed += len(failures)
        for i, message in failures.items():
            self.errors.setdefault(i, message)

    def capture(self) -> None:
        """Run every op once, keep the outputs and check each of them."""
        p = self._pass("capture")
        self.reference = [r[2] for r in p.records]
        self.verdicts: list = [None] * len(self.ops)
        outputs = []
        if os.path.exists(p.prefix + ".out"):
            with open(p.prefix + ".out") as f:
                outputs = [json.loads(line) for line in f if line.endswith("\n")]
        failures = {}
        for i, op in enumerate(self.ops):
            if i >= min(len(p.records), len(outputs)):
                failures[i] = "not completed"
                continue
            error, self.verdicts[i] = check.check_op(op, _code(p.records[i][0]), *outputs[i])
            if error:
                failures[i] = error
        for i, error in check.check_pairs(self.ops, self.verdicts).items():
            failures.setdefault(i, error)
        self.digest = hashlib.sha256("".join(self.reference).encode()).hexdigest()[:16]
        self.golden = json.loads((BENCH / "golden.json").read_text()).get(
            self.workload, {}).get(str(self.seed))
        if self.golden not in (None, self.digest):
            message = f"output digest {self.digest} differs from the recorded {self.golden}"
            failures = {i: failures.get(i, message) for i in range(len(self.ops))}
        self._tally(failures)

    def timed(self, mode: str) -> None:
        p = self._pass(mode)
        failures = {}
        for i in range(len(self.ops)):
            if i >= len(p.records):
                failures[i] = f"not completed in a {mode} pass"
            elif i >= len(self.reference) or p.records[i][2] != self.reference[i]:
                failures[i] = f"output of a {mode} pass differs from the capture pass"
        self._tally(failures)
        if not p.error:
            self.passes[mode].append(p)

    def measure(self) -> dict[str, float]:
        """Timed passes until the time is used; the run's metrics.

        Set-up is sampled between passes, so its samples spread over the
        run like the passes do.
        """
        start = time.perf_counter()
        setups: list[Pass] = []
        while not self.broken:
            if not self.trace:
                setups += [Pass("setup", self.workload, self.seed, "")
                           for _ in range(SETUPS_PER_PASS)]
                self.broken += [p.error for p in setups[-SETUPS_PER_PASS:] if p.error]
            for mode in ("run", "trace") if self.trace else ("run",):
                self.timed(mode)
            if time.perf_counter() - start >= self.seconds:
                break
        if self.broken:
            return {}
        return self._layers() if self.trace else self._end_to_end(setups + self.passes["run"])

    def _end_to_end(self, setups: list[Pass]) -> dict[str, float]:
        runs = self.passes["run"]
        out = {
            "setup_raw_s": statistics.median(p.summary["setup_s"] for p in setups),
            "setup_s": statistics.median(
                p.summary["setup_s"] * PROBE_REF_S / p.summary["setup_probe_s"] for p in setups),
            "peak_rss_mb": statistics.median(p.summary["peak_rss_mb"] for p in runs),
            "probe_ms": statistics.median(p.summary["probe_s"] for p in runs) * 1e3,
        }
        # Each pass's times scaled by how much slower than the reference its
        # speed probe ran, then the median over passes, per op and per pass.
        for suffix, scales in (("", [1.0] * len(runs)),
                               ("_ref", [PROBE_REF_S / p.summary["probe_s"] for p in runs])):
            per_op = [statistics.median(p.records[i][1] * k for p, k in zip(runs, scales))
                      for i in range(len(self.ops))]
            out[f"wall{suffix}_s"] = statistics.median(
                p.summary["wall_s"] * k for p, k in zip(runs, scales))
            out[f"latency_p50{suffix}_ms"] = _quantile(per_op, 50) * 1e3
            out[f"latency_p90{suffix}_ms"] = _quantile(per_op, 90) * 1e3
        return out

    def _layers(self) -> dict[str, float]:
        traced = self.passes["trace"]
        out = {name: statistics.median(p.summary["layers"][name] for p in traced)
               for name in traced[0].summary["layers"]}
        # at reference speed, so a drift of the machine between passes cancels
        out["trace.overhead_s"] = _ref_wall(traced) - _ref_wall(self.passes["run"])
        return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        run = Run(workload, seed, seconds, trace, tmp)
        run.capture()
        metrics = run.measure() if not run.broken else {}
        if run.passes["trace"]:
            os.replace(run.passes["trace"][-1].prefix + ".spans",
                       BENCH / "out" / f"spans-{workload}.bin")
    return run, metrics


def report(run: Run, metrics: dict, units: dict) -> None:
    """Human-readable lines for one workload."""
    n_timed = sum(map(len, run.passes.values()))
    print(f"workload {run.workload} seed {run.seed}: {len(run.ops)} ops per pass, "
          f"1 capture + {n_timed} timed passes")
    props = workloads.properties(run.workload, run.ops, run.verdicts)
    print("  properties: " + " ".join(
        f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}" for k, v in props.items()))
    recorded = ("matches the recorded digest" if run.golden == run.digest else
                "no recorded digest for this seed" if run.golden is None else
                f"DIFFERS from the recorded {run.golden}")
    print(f"  output digest {run.digest}: {recorded}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'fail_ratio':<42} {ratio:>14.6g} ({run.failed} of {run.attempted} op runs)")
    for i, message in sorted(run.errors.items())[:10]:
        print(f"  FAILED op {i} {' '.join(map(str, run.ops[i].args))[:120]}: {message}")
    for message in run.broken:
        print(f"  BROKEN {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cohiggs" / "__init__.py").is_file():
        print(f"error: no cohiggs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile once, so no timed import pays for compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True)

    units = dict(END_TO_END + RAW) | {name: unit for name, unit, _ in tracing.PER_LAYER}
    reported = [name for name, _ in END_TO_END] if not args.trace else \
        [name for name, _, _ in tracing.PER_LAYER]
    info = machine_info()
    print(f"machine: python {info['python']}, nproc {info['nproc']}, cpu {info['cpu']}")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(run, metrics, units)
        result["correct"] &= not run.failed and not run.broken and bool(metrics)
        result["attempted"] += run.attempted
        result["failed"] += run.failed
        prefix = f"{name}." if args.workload == "all" else ""
        result["metrics"] |= {prefix + k: {"value": metrics[k], "unit": units[k]}
                              for k in reported if k in metrics}
    print("excluded inputs (unbounded today): " + "; ".join(
        f"{cmd} ({why})" for cmd, why in workloads.EXCLUDED))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
