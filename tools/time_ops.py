"""Time representative hermevp CLI ops in-process and print JSON.

    python3 tools/time_ops.py SRC > timings.json

SRC is the ``src`` directory of the checkout to measure, so one copy of
this script times any two versions, for example a parent checkout and the
working tree.  Each op runs ``hermevp.cli.main`` once as a warm-up and then
REPEATS more times; the JSON holds the median, quartiles and minimum of
the timed runs in seconds, with the BLAS thread setting and the library
versions.  BLAS is pinned to min(nproc, 2) threads before numpy loads, as
in the benchmark.
"""

from __future__ import annotations

import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

REPEATS = 21
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# the op names follow the benchmark workloads whose ops they are
OPS = {
    "fine_solve": ("solve", "--p", "5", "--n", "512", "--modes", "5",
                   "--epsilon", "1e-06", "--mesh", "exp", "--preset", "expx"),
    "small_solve": ("solve", "--p", "3", "--n", "32", "--modes", "3",
                    "--epsilon", "1e-04", "--mesh", "exp", "--preset",
                    "expx"),
    "study": ("convergence", "--p", "3", "--n", "16,32,64,128", "--modes",
              "2", "--ref-n", "1024", "--epsilon", "1e-06", "--mesh", "exp",
              "--preset", "expx"),
    "table1": ("table1",),
    "interp_study": ("interp-study", "--p", "5", "--n", "16,32,64,128,256",
                     "--epsilon", "1e-08", "--mesh", "exp"),
}


def time_op(main, argv, out_dir) -> dict:
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
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"argv": " ".join(argv), "median_s": median, "q1_s": q1,
            "q3_s": q3, "min_s": min(times), "runs": len(times)}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(args[0]).resolve()
    if not (src / "hermevp" / "cli.py").is_file():
        print(f"no hermevp sources under {src}", file=sys.stderr)
        return 2
    threads = min(len(os.sched_getaffinity(0)), 2)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    from hermevp.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        ops = {name: time_op(cli_main, op, out_dir)
               for name, op in OPS.items()}
    record = {
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        },
        "ops": ops,
    }
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
