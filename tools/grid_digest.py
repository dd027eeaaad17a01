"""Digest every benchmark grid op's output on one checkout; print JSON lines.

    python3 tools/grid_digest.py SRC > digests.jsonl
    python3 tools/grid_digest.py SRC --against OLD.jsonl

SRC is the ``src`` directory of a checkout.  Every op of
``bench/workloads.grid()`` for every workload runs once through that
checkout's ``hermevp.cli.main``, in a fresh output directory, with BLAS
pinned to min(nproc, 2) threads as in the benchmark.  For each op one line
``{"<op>": "<sha256>"}`` is printed, the digest taken over the exit code
(or the exception an op raised), its standard output and error with the
output path masked, and the name and bytes of every file it wrote.  Two
checkouts give the same outputs exactly when ``diff`` of their two files
is empty.

With ``--against OLD.jsonl``, a file the first form wrote, each op is
compared with its line there instead: every op whose digest differs, or
that OLD.jsonl lacks, is printed, then the count of differing ops, and
the exit code is 1 if any differ.
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
    if (len(args) not in (1, 3) or args[1:2] not in ([], ["--against"])
            or not (Path(args[0]) / "hermevp" / "cli.py").is_file()):
        print(__doc__, file=sys.stderr)
        return 2
    against = None
    if len(args) == 3:
        with open(args[2]) as fh:
            against = {key: digest for line in fh
                       for key, digest in json.loads(line).items()}
    threads = min(len(os.sched_getaffinity(0)), 2)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path[:0] = [str(Path(args[0]).resolve()), str(BENCH)]
    import workloads
    from hermevp.cli import main as cli_main

    n_ops = n_differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        for workload in workloads.WORKLOADS:
            for op in workloads.grid(workload):
                key = workloads.op_key(op)
                digest = op_digest(cli_main, op, out_dir)
                n_ops += 1
                if against is None:
                    print(json.dumps({key: digest}), flush=True)
                elif against.get(key) != digest:
                    n_differ += 1
                    print(f"differs: {key}", flush=True)
    if against is not None:
        print(f"{n_differ} of {n_ops} ops differ")
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main())
