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


def run_bench(root: Path, workload: str, seed: int) -> dict:
    """The result object, the last line bench/run.py prints."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


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
        runs.append({"seed": seed, "first": order[0],
                     **{side: run_bench(sides[side], workload, seed)
                        for side in order}})

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
        "pairs": [{"seed": r["seed"], "first": r["first"],
                   **{side: {name: m["value"]
                             for name, m in r[side]["metrics"].items()}
                      for side in sides}} for r in runs],
    }
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
