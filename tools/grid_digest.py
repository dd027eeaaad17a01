"""Digest every benchmark grid op's output on one checkout; print JSON lines.

    python3 tools/grid_digest.py SRC > digests.jsonl

SRC is the ``src`` directory of a checkout.  Every op of
``bench/workloads.grid()`` for every workload runs once through that
checkout's ``hermevp.cli.main``, in a fresh output directory, with BLAS
pinned to min(nproc, 2) threads as in the benchmark.  For each op one line
``{"<op>": "<sha256>"}`` is printed, the digest taken over the exit code
(or the exception an op raised), its standard output and error with the
output path masked, and the name and bytes of every file it wrote.  Two
checkouts give the same outputs exactly when ``diff`` of their two files
is empty.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
OUT_MASK = "<out>"


def op_digest(main, argv, out_dir: Path) -> str:
    """sha256 of one op's exit code, masked console text and output files."""
    shutil.rmtree(out_dir, ignore_errors=True)
    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            status = repr(main(list(argv) + ["--out", str(out_dir)]))
    except (Exception, SystemExit) as exc:  # argparse exits via SystemExit
        status = f"{type(exc).__name__}: {exc}"
    h = hashlib.sha256()
    parts = [status.encode(), buf.getvalue().replace(str(out_dir),
                                                     OUT_MASK).encode()]
    if out_dir.is_dir():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            parts += [path.relative_to(out_dir).as_posix().encode(),
                      path.read_bytes()]
    for part in parts:          # length-prefixed, so parts cannot run together
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "hermevp" / "cli.py").is_file():
        print(__doc__, file=sys.stderr)
        return 2
    threads = min(len(os.sched_getaffinity(0)), 2)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path[:0] = [str(Path(args[0]).resolve()), str(BENCH)]
    import workloads
    from hermevp.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        for workload in workloads.WORKLOADS:
            for op in workloads.grid(workload):
                digest = op_digest(cli_main, op, out_dir)
                print(json.dumps({workloads.op_key(op): digest}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
