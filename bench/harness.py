"""Process set-up shared by the benchmark's entry points: BLAS thread
pinning, importing hermevp from the checkout's own ``src``, and running one
op with its output captured.

Nothing here imports numpy at module level, so the thread pin is in place
before any BLAS library loads.
"""

from __future__ import annotations

import io
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Pin BLAS to min(nproc, 2) threads; call before numpy is imported."""
    threads = min(nproc(), MAX_BLAS_THREADS)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


class MissingProgram(RuntimeError):
    """The checkout does not hold the hermevp sources."""


def import_cli():
    """Import ``hermevp.cli`` from this checkout's ``src``, never from an
    installed copy, so the benchmark measures the code next to it."""
    if not (SRC / "hermevp" / "cli.py").is_file():
        raise MissingProgram(f"no hermevp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hermevp.cli
    if Path(hermevp.cli.__file__).resolve().parent.parent != SRC:
        raise MissingProgram(f"hermevp imported from {hermevp.cli.__file__}, "
                             f"not from {SRC}")
    return hermevp.cli


def run_op(main, argv, out_dir):
    """Call ``main(argv + --out out_dir)`` with stdout and stderr captured.

    Returns (seconds, exit_code, error); exit_code is None when the call
    raised, and error then holds the exception's text.
    """
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            rc = main(list(argv) + ["--out", str(out_dir)])
    except (Exception, SystemExit) as exc:  # argparse exits via SystemExit
        rc = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if rc not in (0, None) and error is None:
        error = f"exit code {rc}: {buf.getvalue().strip()[-300:]}"
    return seconds, rc, error
