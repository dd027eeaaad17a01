"""Time the float renderers of hermevp.csvout on real mode-file columns.

    python3 tools/csv_kernel_ns.py SRC

SRC is the ``src`` directory of a checkout.  One ``fine_solve`` op
(tools/time_ops.OPS) runs through that checkout's ``hermevp.cli.main``;
its five mode files are read back, exactly, since ``%.17g`` round-trips
every double.  Then, with BLAS pinned as in the benchmark, it times on
those columns, each way once as a warm-up and then REPEATS times, the ways
of one comparison taking turns so that drift in machine speed hits them
alike:

- ns per float of ``float_fields`` and of ``'%.17g' % v`` over a list;
- the five mode files written as the solve writes them: the shared ``x``
  fields rendered once, then each file's ``u`` and ``u'`` rendered in one
  ``float_fields`` call and written as fields, against the same files
  from lists through the ``%`` path, ``x`` preformatted once as strings;
- the kernel's five files again for each of CHUNK_SWEEP as
  ``csvout.CHUNK``.

It checks that both ways give the same bytes and prints one JSON object:
medians and quartiles in ns per float and in ms per five files.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

from time_ops import BLAS_THREAD_VARS, OPS, summary

REPEATS = 25
CHUNK_SWEEP = (1024, 2048, 4096, 8192)
HEADER = ("x", "u", "du")


def timed(fns: dict, scale: float, unit: str) -> dict:
    """summary() of each function's times times scale, the functions
    called in turn."""
    times = {name: [] for name in fns}
    for repeat in range(REPEATS + 1):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            if repeat:                          # the first round warms up
                times[name].append((time.perf_counter() - start) * scale)
    return {name: summary(values, unit) for name, values in times.items()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "hermevp" /
                              "csvout.py").is_file():
        print(__doc__, file=sys.stderr)
        return 2
    threads = min(len(os.sched_getaffinity(0)), 2)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(Path(args[0]).resolve()))
    import numpy as np
    from hermevp import csvout
    from hermevp.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with redirect_stdout(io.StringIO()):
            cli_main(list(OPS["fine_solve"]) + ["--out", str(out)])
        tables = [np.loadtxt(out / f"mode_{m}.csv", delimiter=",",
                             skiprows=1) for m in range(1, 6)]
        expect = [(out / f"mode_{m}.csv").read_bytes() for m in range(1, 6)]
    xs = tables[0][:, 0]
    columns = [t[:, j] for t in tables for j in (1, 2)]
    lists = [c.tolist() for c in columns]
    n_floats = sum(map(len, columns))

    def kernel_floats():
        for c in columns:
            csvout.float_fields(c)

    def percent_floats():
        for values in lists:
            [csvout.FLOAT_FIELD % v for v in values]

    def write_files(arrays: bool) -> list:
        files = []
        if arrays:
            x = csvout.float_fields(xs)
        else:
            x = [csvout.FLOAT_FIELD % v for v in xs.tolist()]
        for m in range(5):
            fh = io.StringIO(newline="")
            if arrays:
                kinds = (float,) * 3
                u, du = csvout.float_fields(
                    np.stack(columns[2 * m:2 * m + 2])).reshape(2, -1)
            else:
                kinds = (str, float, float)
                u, du = lists[2 * m], lists[2 * m + 1]
            csvout.CsvWriter(fh, HEADER, kinds).writecolumns((x, u, du))
            files.append(fh.getvalue().encode())
        return files

    if write_files(True) != expect or write_files(False) != expect:
        print("the two ways disagree with the written files", file=sys.stderr)
        return 1
    per_float = timed({"float_fields": kernel_floats,
                       "percent": percent_floats}, 1e9 / n_floats, "ns")
    five_files = timed({"arrays_kernel": lambda: write_files(True),
                        "lists_percent": lambda: write_files(False)},
                       1e3, "ms")

    def with_chunk(size):
        def run():
            chunk, csvout.CHUNK = csvout.CHUNK, size
            try:
                write_files(True)
            finally:
                csvout.CHUNK = chunk
        return run

    five_files_by_chunk = timed({size: with_chunk(size)
                                 for size in CHUNK_SWEEP}, 1e3, "ms")
    record = {
        "command": " ".join(["python3", "tools/csv_kernel_ns.py", *args]),
        "op": " ".join(OPS["fine_solve"]),
        "rows_per_file": len(xs),
        "floats_timed": n_floats,
        "repeats": REPEATS,
        "ns_per_float": per_float,
        "ms_per_five_mode_files": five_files,
        "ms_per_five_kernel_files_by_chunk": five_files_by_chunk,
    }
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
