"""One pass of a workload in a fresh interpreter.

Usage: worker.py MODE WORKLOAD SEED PREFIX, where MODE is

- ``setup``: only time the import of cohiggs and cohiggs.cli;
- ``capture``: run every op and also write each op's output to PREFIX.out;
- ``run``: run every op, hashing output as it streams;
- ``trace``: as ``run`` with the layer spans recorded (PREFIX.spans).

Each op appends ``exit<TAB>latency_s<TAB>digest`` to PREFIX.ops; the last
line of stdout is a JSON summary of the pass.  The summary includes
``probe_s``, the median time of a fixed pure-Python loop run before, between
(every PROBE_EVERY_S) and after the ops: a sample of the machine's speed
while the pass ran; probe time is excluded from ``wall_s``.  The import is
bracketed by probes the same way (``setup_probe_s``).
"""

import os
import sys
import time

_BENCH = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_BENCH), "src")
sys.path.insert(0, _SRC)

PROBE_EVERY_S = 0.05
PROBE_SAMPLES = 10  # before and after the ops, half as many around the import


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.perf_counter() - t


# Timed before anything else is imported, so the stdlib modules cohiggs
# needs count toward its set-up time, as they do for a real invocation.
_setup_probes = [speed_probe() for _ in range(PROBE_SAMPLES // 2)]
_t = time.perf_counter()
import cohiggs  # noqa: E402
import cohiggs.cli  # noqa: E402
SETUP_S = time.perf_counter() - _t
_setup_probes += [speed_probe() for _ in range(PROBE_SAMPLES // 2)]

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, _BENCH)
import workloads  # noqa: E402


class _Sink:
    """A text stream that hashes what is written, optionally keeping it."""

    def __init__(self, keep: bool) -> None:
        self.hash = hashlib.sha256()
        self.parts = [] if keep else None

    def write(self, s: str) -> int:
        self.hash.update(s.encode())
        if self.parts is not None:
            self.parts.append(s)
        return len(s)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def _exit_code(exc: SystemExit):
    return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1


def run_cli(argv, keep: bool):
    out, err = _Sink(keep), _Sink(keep)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t = time.perf_counter()
    try:
        code = cohiggs.cli.main(list(argv))
    except SystemExit as exc:
        code = _exit_code(exc)
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        code = f"raised:{type(exc).__name__}"
        traceback.print_exc(file=err)
    latency = time.perf_counter() - t
    sys.stdout, sys.stderr = saved
    return code, latency, out, err


def run_lib(args, keep: bool):
    degrees, p, mode, rows = args
    out, err = _Sink(keep), _Sink(keep)
    verdict, code = None, None
    t = time.perf_counter()
    try:
        fld = cohiggs.PrimeField(p)
        entries = [[cohiggs.HomogPoly(fld, len(c) - 1, c) for c in row] for row in rows]
        phi = cohiggs.CoHiggsMatrix(cohiggs.SplittingType(degrees), fld, entries)
        verdict = cohiggs.semistability_oracle(phi, mode)
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        code = f"raised:{type(exc).__name__}"
        traceback.print_exc(file=err)
    latency = time.perf_counter() - t
    if verdict is not None:
        code = 0 if verdict.passes else 2
        out.write(json.dumps(verdict.to_json_dict(), sort_keys=True))
    return code, latency, out, err


def main(mode: str, workload: str, seed: int, prefix: str) -> None:
    if not os.path.abspath(cohiggs.__file__).startswith(_SRC + os.sep):
        raise SystemExit(f"imported cohiggs from {cohiggs.__file__}, not from {_SRC}")
    summary = {"setup_s": SETUP_S, "setup_probe_s": statistics.median(_setup_probes)}
    if mode != "setup":
        ops = workloads.generate(workload, seed)
        keep = mode == "capture"
        tracer = None
        if mode == "trace":
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        with open(prefix + ".ops", "w") as records, open(prefix + ".out", "w") as captured:
            probes = [speed_probe() for _ in range(PROBE_SAMPLES)]
            probing = 0.0
            start = next_probe = time.perf_counter()
            for i, op in enumerate(ops):
                if time.perf_counter() >= next_probe:
                    probes.append(speed_probe())
                    probing += probes[-1]
                    next_probe = time.perf_counter() + PROBE_EVERY_S
                if tracer:
                    tracer.op = i
                run = run_lib if op.kind == "oracle-lib" else run_cli
                code, latency, out, err = run(op.args, keep)
                digest = hashlib.sha256(f"{code}\0".encode() + out.hash.digest()
                                        + err.hash.digest()).hexdigest()[:16]
                records.write(f"{code}\t{latency!r}\t{digest}\n")
                if keep:
                    captured.write(json.dumps([out.text(), err.text()]) + "\n")
            summary["wall_s"] = time.perf_counter() - start - probing
        probes += [speed_probe() for _ in range(PROBE_SAMPLES)]
        summary["probe_s"] = statistics.median(probes)
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer:
            summary["layers"] = tracer.metrics()
            tracer.dump(prefix + ".spans")
    print(json.dumps(summary))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])
