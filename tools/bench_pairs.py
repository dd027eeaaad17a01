"""Run the benchmark in two checkouts as alternating pairs; print one JSON.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD PAIRS FIRST_SEED

PARENT_DIR and CHANGE_DIR are checkout roots, each with its own ``bench/``
and ``src/``.  Pair i uses seed FIRST_SEED + i and runs

    python3 bench/run.py --workload WORKLOAD --seed S --seconds 30 --trace 0

once in each checkout, one after the other: the parent first on odd
seeds, the change first on even ones.  The JSON holds every pair's
metrics and, per end-to-end metric, each side's median and quartiles
(time_ops.summary) and the number of pairs in which that side was better,
that is lower, as every end-to-end metric is;
with them each side's failed and attempted op totals.  Whether a
difference is a gain is for its reader to judge from the spread.

Each pair is printed to stderr as one JSON line as soon as both of its
runs end.  If a run exits non-zero, no further run starts: stdout gets
one JSON holding the pairs finished so far and that run's side, seed,
exit code and last STDERR_TAIL lines of stderr, and the exit code is 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from time_ops import summary

SECONDS = 30
MIN_PAIRS = 2                   # quartiles need two values per side
STDERR_TAIL = 20


def run_bench(root: Path, workload: str,
              seed: int) -> subprocess.CompletedProcess:
    """One bench/run.py run; its last stdout line is the result object."""
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True)


def pair_row(run: dict) -> dict:
    """One pair's seed, first side and each side's metric values."""
    return {"seed": run["seed"], "first": run["first"],
            **{side: {name: m["value"]
                      for name, m in run[side]["metrics"].items()}
               for side in ("parent", "change")}}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    try:
        parent, change, workload, pairs, first_seed = args
        pairs, first_seed = int(pairs), int(first_seed)
    except ValueError:
        print(__doc__, file=sys.stderr)
        return 2
    sides = {"parent": Path(parent).resolve(),
             "change": Path(change).resolve()}
    for root in sides.values():
        if not (root / "bench" / "run.py").is_file():
            print(f"no bench/run.py under {root}", file=sys.stderr)
            return 2
    if pairs < MIN_PAIRS:
        print(f"need at least {MIN_PAIRS} pairs", file=sys.stderr)
        return 2

    runs = []
    for seed in range(first_seed, first_seed + pairs):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        run = {"seed": seed, "first": order[0]}
        for side in order:
            proc = run_bench(sides[side], workload, seed)
            if proc.returncode:
                tail = proc.stderr.splitlines()[-STDERR_TAIL:]
                json.dump({"failed": {"side": side, "seed": seed,
                                      "returncode": proc.returncode,
                                      "stderr_tail": tail},
                           "pairs": [pair_row(r) for r in runs]},
                          sys.stdout, indent=1)
                sys.stdout.write("\n")
                return 1
            run[side] = json.loads(proc.stdout.splitlines()[-1])
        runs.append(run)
        print(json.dumps(pair_row(run)), file=sys.stderr, flush=True)

    metrics = {}
    for name, metric in runs[0]["parent"]["metrics"].items():
        unit = metric["unit"].lower()
        values = {side: [r[side]["metrics"][name]["value"] for r in runs]
                  for side in sides}
        metrics[name] = {
            **{side: summary(values[side], unit) for side in sides},
            "parent_better_pairs": sum(
                p < c for p, c in zip(values["parent"], values["change"])),
            "change_better_pairs": sum(
                c < p for p, c in zip(values["parent"], values["change"])),
        }
    record = {
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "command": " ".join(["python3", "tools/bench_pairs.py", *args]),
        "workload": workload,
        "seconds": SECONDS,
        "metrics": metrics,
        "ops": {side: {key: sum(r[side][key] for r in runs)
                       for key in ("failed", "attempted")}
                for side in sides},
        "pairs": [pair_row(r) for r in runs],
    }
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
