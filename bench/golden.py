"""Record the output digest of a capture pass for seeds not yet recorded.

    python3 bench/golden.py SEED [SEED ...]

Each workload's capture pass must pass every check before its digest is
written to bench/golden.json; later runs on a recorded seed then require
byte-identical output.
"""

import json
import sys
import tempfile

import run
import workloads


def main(seeds: list[int]) -> int:
    path = run.BENCH / "golden.json"
    golden = json.loads(path.read_text())
    (run.BENCH / "out").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        recorded = golden.setdefault(workload, {})
        for seed in seeds:
            if str(seed) in recorded:
                continue
            with tempfile.TemporaryDirectory(dir=run.BENCH / "out") as tmp:
                capture = run.Run(workload, seed, 0, False, tmp)
                capture.capture()
            if capture.failed or capture.broken:
                print(f"{workload} seed {seed}: capture pass failed, nothing recorded",
                      file=sys.stderr)
                return 1
            recorded[str(seed)] = capture.digest
            print(f"{workload} seed {seed}: {capture.digest}")
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
