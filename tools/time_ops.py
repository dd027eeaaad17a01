"""Time representative hermevp CLI ops on two checkouts and print one JSON.

    python3 tools/time_ops.py BEFORE_SRC AFTER_SRC > BENCH_<date>_<topic>.json

BEFORE_SRC and AFTER_SRC are the ``src`` directories of the two checkouts,
for example a parent checkout and the working tree.  The sides alternate
for ROUNDS rounds, each round in a fresh process per side.  In a round
every op runs ``hermevp.cli.main`` once as a warm-up and then REPEATS
more times.  The JSON holds, per op and side, the median,
quartiles and minimum of all timed runs in seconds, the per-round medians,
and the number of rounds in which the after side's median was lower; with
it the BLAS thread setting and the library versions.  BLAS is pinned to
min(nproc, 2) threads before numpy loads, as in the benchmark.  The file
is a record of the two versions on one machine; whether a difference is
a gain is for its reader to judge from the spread.
"""

from __future__ import annotations

import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

REPEATS = 21
ROUNDS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# the op names follow the benchmark workloads whose ops they are
OPS = {
    "fine_solve": ("solve", "--p", "5", "--n", "512", "--modes", "5",
                   "--epsilon", "1e-06", "--mesh", "exp", "--preset", "expx"),
    "small_solve": ("solve", "--p", "3", "--n", "32", "--modes", "3",
                    "--epsilon", "1e-04", "--mesh", "exp", "--preset",
                    "expx"),
    "tiny_solve": ("solve", "--p", "3", "--n", "8", "--modes", "3",
                   "--epsilon", "1e-04", "--mesh", "exp", "--preset", "expx"),
    "study": ("convergence", "--p", "3", "--n", "16,32,64,128", "--modes",
              "2", "--ref-n", "1024", "--epsilon", "1e-06", "--mesh", "exp",
              "--preset", "expx"),
    "table1": ("table1",),
    "interp_study": ("interp-study", "--p", "5", "--n", "16,32,64,128,256",
                     "--epsilon", "1e-08", "--mesh", "exp"),
}


def time_op(main, argv, out_dir) -> list:
    times = []
    for i in range(REPEATS + 1):
        shutil.rmtree(out_dir, ignore_errors=True)
        with redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = main(list(argv) + ["--out", out_dir])
            seconds = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {rc}")
        if i:                                   # run 0 is the warm-up
            times.append(seconds)
    return times


def one_round(src: Path) -> dict:
    """Time every op on the hermevp under src; runs in its own process."""
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    from hermevp.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        times = {name: time_op(cli_main, op, out_dir)
                 for name, op in OPS.items()}
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }
    return {"env": env, "times": times}


def summary(times: list) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "min_s": min(times),
            "runs": len(times)}


def run_side(src: Path) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--one-round", str(src)],
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    threads = min(len(os.sched_getaffinity(0)), 2)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    if len(args) == 2 and args[0] == "--one-round":
        json.dump(one_round(Path(args[1]).resolve()), sys.stdout)
        return 0
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = {"before": args[0], "after": args[1]}
    for src in sides.values():
        if not (Path(src) / "hermevp" / "cli.py").is_file():
            print(f"no hermevp sources under {src}", file=sys.stderr)
            return 2

    times = {side: {name: [] for name in OPS} for side in sides}
    medians = {side: {name: [] for name in OPS} for side in sides}
    env = {}
    for _ in range(ROUNDS):
        for side, src in sides.items():
            result = run_side(Path(src).resolve())
            env[side] = result["env"]
            for name, runs in result["times"].items():
                times[side][name] += runs
                medians[side][name].append(statistics.median(runs))

    ops = {}
    for name, op in OPS.items():
        ops[name] = {
            "argv": " ".join(op),
            **{side: {**summary(times[side][name]),
                      "round_medians_s": medians[side][name]}
               for side in sides},
            "after_lower_rounds": sum(
                a < b for a, b in zip(medians["after"][name],
                                      medians["before"][name])),
        }
    record = {
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "command": " ".join(["python3", "tools/time_ops.py", *args]),
        "sides": sides,
        "rounds": ROUNDS,
        "repeats_per_round": REPEATS,
        "environment": env["after"],
        "same_environment": env["before"] == env["after"],
        "ops": ops,
    }
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
