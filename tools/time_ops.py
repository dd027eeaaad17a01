"""Time representative hermevp CLI ops on two checkouts and print one JSON.

    python3 tools/time_ops.py [--ops NAME[,NAME...]] BEFORE_SRC AFTER_SRC

prints the JSON to stdout, to be saved as BENCH_<date>_<topic>.json.

BEFORE_SRC and AFTER_SRC are the ``src`` directories of the two checkouts,
for example a parent checkout and the working tree.  --ops times only the
named ops of OPS; without it every op runs, large_solve included, which
takes minutes.  The sides alternate for ROUNDS rounds, each round in a
fresh process per side; the side that runs first alternates, starting
with before.  In a round every op runs ``hermevp.cli.main`` once as a
warm-up and then REPEATS more times, each run timed in wall seconds and in
the process's CPU seconds (``time.process_time``, every thread, BLAS pools
included).  The JSON holds, per op and side, the median, quartiles and
minimum of all timed runs in wall seconds, the per-round medians and
minima, the same summary of CPU seconds under ``cpu``, and the number of
rounds in which the after side's wall median was lower and in which its
best run was, the statistic ``bench/run.py`` takes over its passes; with
it the BLAS thread setting and the library versions.  BLAS is pinned to min(nproc, 2) threads before
numpy loads, as in the benchmark.  The file is a record of the two
versions on one machine; whether a difference is a gain is for its reader
to judge from the spread.
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

# the op names follow the benchmark workloads whose ops they are;
# large_solve is no benchmark op: at 32766 dofs a stage that turns O(n^2)
# dominates its time
OPS = {
    "fine_solve": ("solve", "--p", "5", "--n", "512", "--modes", "5",
                   "--epsilon", "1e-06", "--mesh", "exp", "--preset", "expx"),
    "large_solve": ("solve", "--p", "5", "--n", "8192", "--modes", "5",
                    "--epsilon", "1e-08", "--mesh", "exp"),
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
    # groups of one interval, where interp_study has groups of two
    "interp_study_p3": ("interp-study", "--p", "3", "--n", "16,32,64,128",
                        "--epsilon", "1e-05", "--mesh", "shishkin"),
    "mesh_dump": ("mesh-dump", "--p", "3", "--n", "16", "--epsilon", "1e-06",
                  "--mesh", "exp"),
}


def time_op(main, argv, out_dir) -> tuple:
    """Wall and CPU seconds of each timed run of argv."""
    wall, cpu = [], []
    for i in range(REPEATS + 1):
        shutil.rmtree(out_dir, ignore_errors=True)
        with redirect_stdout(io.StringIO()):
            t0, c0 = time.perf_counter(), time.process_time()
            rc = main(list(argv) + ["--out", out_dir])
            seconds, cpu_seconds = (time.perf_counter() - t0,
                                    time.process_time() - c0)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {rc}")
        if i:                                   # run 0 is the warm-up
            wall.append(seconds)
            cpu.append(cpu_seconds)
    return wall, cpu


def one_round(src: Path, names: list) -> dict:
    """Time the named ops on the hermevp under src; runs in its own
    process."""
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    from hermevp.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        runs = {name: time_op(cli_main, OPS[name], out_dir)
                for name in names}
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }
    return {"env": env,
            "times": {name: wall for name, (wall, _) in runs.items()},
            "cpu_times": {name: cpu for name, (_, cpu) in runs.items()}}


def summary(values: list, unit: str = "s") -> dict:
    """Median, quartiles and minimum of values, keyed with their unit."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {f"median_{unit}": median, f"q1_{unit}": q1, f"q3_{unit}": q3,
            f"min_{unit}": min(values), "runs": len(values)}


def run_side(src: Path, names: list) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--one-round", str(src),
                           ",".join(names)],
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    threads = min(len(os.sched_getaffinity(0)), 2)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    if len(args) == 3 and args[0] == "--one-round":
        json.dump(one_round(Path(args[1]).resolve(), args[2].split(",")),
                  sys.stdout)
        return 0
    command = " ".join(["python3", "tools/time_ops.py", *args])
    names = list(OPS)
    if args[:1] == ["--ops"] and len(args) > 1:
        names = args[1].split(",")
        unknown = [name for name in names if name not in OPS]
        if unknown:
            print(f"unknown op(s) {', '.join(unknown)}; choose from "
                  f"{', '.join(OPS)}", file=sys.stderr)
            return 2
        args = args[2:]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = {"before": args[0], "after": args[1]}
    for src in sides.values():
        if not (Path(src) / "hermevp" / "cli.py").is_file():
            print(f"no hermevp sources under {src}", file=sys.stderr)
            return 2

    times = {side: {name: [] for name in names} for side in sides}
    cpu = {side: {name: [] for name in names} for side in sides}
    medians = {side: {name: [] for name in names} for side in sides}
    minima = {side: {name: [] for name in names} for side in sides}
    env = {}
    for i in range(ROUNDS):
        # the side that runs first alternates, so neither one always
        # meets the machine in the same state
        for side, src in list(sides.items())[::1 if i % 2 == 0 else -1]:
            result = run_side(Path(src).resolve(), names)
            env[side] = result["env"]
            for name, runs in result["times"].items():
                times[side][name] += runs
                medians[side][name].append(statistics.median(runs))
                minima[side][name].append(min(runs))
            for name, runs in result["cpu_times"].items():
                cpu[side][name] += runs

    ops = {}
    for name in names:
        ops[name] = {
            "argv": " ".join(OPS[name]),
            **{side: {**summary(times[side][name]),
                      "round_medians_s": medians[side][name],
                      "round_minima_s": minima[side][name],
                      "cpu": summary(cpu[side][name])}
               for side in sides},
            "after_lower_rounds": sum(
                a < b for a, b in zip(medians["after"][name],
                                      medians["before"][name])),
            "after_best_lower_rounds": sum(
                a < b for a, b in zip(minima["after"][name],
                                      minima["before"][name])),
        }
    record = {
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "command": command,
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
