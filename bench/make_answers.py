"""Generate the stored answers: run every op any seed can draw, once,
and store the summary of its output files in answers.json.

Run it from the repository root at the commit the answers describe:

    python3 bench/make_answers.py

It takes a few minutes on two cores.  An op that fails stops the script,
because a workload must only hold inputs on which no op fails.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import checker
import harness
import workloads

ANSWERS = Path(__file__).resolve().parent / "answers.json"


def main() -> int:
    harness.pin_blas_threads()
    cli = harness.import_cli()
    answers = {}
    work = Path(tempfile.mkdtemp(prefix="answers-", dir=harness.ROOT))
    try:
        for name in workloads.WORKLOADS:
            times = []
            for argv in workloads.grid(name):
                key = workloads.op_key(argv)
                if key in answers:
                    continue
                out = work / str(len(answers))
                seconds, rc, error = harness.run_op(cli.main, argv, out)
                if rc != 0:
                    print(f"op failed: {key}: {error}", file=sys.stderr)
                    return 1
                answers[key] = checker.read_outputs(argv, out)
                times.append(seconds)
                shutil.rmtree(out)
            print(f"{name}: {len(times)} ops, median "
                  f"{statistics.median(times) * 1e3:.1f} ms, "
                  f"min {min(times) * 1e3:.1f} ms, "
                  f"max {max(times) * 1e3:.1f} ms")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(ANSWERS, "w") as fh:
        json.dump(answers, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(answers)} answers to {ANSWERS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
