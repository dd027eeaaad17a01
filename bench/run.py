"""hermevp benchmark: drive ``hermevp.cli.main(argv)`` in-process, one
caller in a closed loop, and check every op's output files against the
stored answers.

    python3 bench/run.py --workload study --seed 1 --seconds 30 --trace 0

A run draws one pass, a fixed op sequence, from the seed (workloads.py)
and repeats it until about --seconds have gone by.  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it then runs one more pass
with every layer wrapped (tracer.py) and prints the per-layer metrics.
The last line of standard output is the result object; the line before it
records the environment, and the full record, spans included, goes to
.bench_out/ in the checkout.

Set-up time is measured in fresh processes (setup_probe.py), each of which
imports hermevp and runs one warm-up op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import harness
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
WORK = harness.ROOT / ".bench_work"
RESULTS = harness.ROOT / ".bench_out"
SETUP_REPS = 3
SETUP_TIMEOUT_S = 60

END_TO_END = (
    ("op_p50_s", "s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric names are "<span name>.<stat>"; the totals cover the
# one traced pass
PER_LAYER = (
    "mesh.build_mesh.calls", "mesh.build_mesh.self_s",
    "element.shape_table.self_s", "element.hermite_interpolant.self_s",
    "element.PiecewiseFunction.call.points",
    "element.PiecewiseFunction.call.self_s",
    "assembly.assemble.calls", "assembly.assemble.dofs",
    "assembly.assemble.self_s",
    "assembly.SymBandMatrix.norm_inf.calls",
    "assembly.SymBandMatrix.norm_inf.self_s",
    "assembly.SymBandMatrix.matvec.calls",
    "assembly.FEFunction.call.calls", "assembly.FEFunction.call.points",
    "assembly.FEFunction.call.self_s",
    "eigensolver.solve_smallest.calls", "eigensolver.solve_smallest.dofs",
    "eigensolver.solve_smallest.modes",
    "eigensolver.solve_smallest.iterations",
    "eigensolver.solve_smallest.self_s", "eigensolver.residual_norms.self_s",
    "eigensolver.lambda_rel_dev_max",
    "analysis.convergence_study.self_s", "analysis.compute_reference.self_s",
    "analysis.energy_norm_error.calls", "analysis.energy_norm_error.self_s",
    "analysis.discrete_max_error.self_s", "analysis.sample_points.self_s",
    "analysis.interp_rate_study.self_s",
    "cli.main.self_s", "cli.resolve_coefficients.self_s", "cli.out_bytes",
    "trace.overhead_frac",
)
SPECIAL_UNITS = {"eigensolver.lambda_rel_dev_max": "ratio",
                 "cli.out_bytes": "B", "trace.overhead_frac": "ratio"}


def per_layer_unit(name: str) -> str:
    if name in SPECIAL_UNITS:
        return SPECIAL_UNITS[name]
    return "s" if name.endswith("_s") else "count"


class Runner:
    """Runs ops one after another and keeps what the metrics need."""

    def __init__(self, cli, answers, work: Path):
        self.cli = cli
        self.answers = answers
        self.work = work
        self.attempted = 0
        self.failures = []
        self.lambda_rel_dev = 0.0
        self.out_bytes = 0
        self.verified = {}      # op key -> digest of outputs that passed

    def op(self, argv) -> float:
        """Run, time and check one op; return its wall time."""
        out = self.work / f"op{self.attempted}"
        self.attempted += 1
        # cli.main is looked up per op so a traced pass calls the wrapper
        seconds, rc, error = harness.run_op(self.cli.main, argv, out)
        key = workloads.op_key(argv)
        # a repeat whose files are byte-identical to outputs of the same op
        # that already passed needs no second parse
        if error is None and (digest := checker.digest(out)) != \
                self.verified.get(key):
            result = checker.check(argv, out, self.answers[key])
            self.lambda_rel_dev = max(self.lambda_rel_dev,
                                      result.lambda_rel_dev)
            if result.misses:
                error = "; ".join(result.misses[:5])
            else:
                self.verified[key] = digest
        if out.is_dir():
            self.out_bytes += checker.out_bytes(out)
            shutil.rmtree(out)
        if error is not None:
            self.failures.append({"op": key, "error": error})
        return seconds

    def run_pass(self, ops, tracer=None):
        """Run one pass; its wall time is the sum of its op times, so the
        checks between ops are not counted."""
        times = []
        for i, argv in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            times.append(self.op(argv))
        return sum(times), times


def measure_setup(runner, warmup_op):
    """Median wall time of fresh processes that import hermevp and run one
    warm-up op; a probe whose op fails counts as a failed op."""
    times = []
    for i in range(SETUP_REPS):
        out = runner.work / f"setup{i}"
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(out),
                 *warmup_op],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=SETUP_TIMEOUT_S)
            error = proc.stderr[-500:] if proc.returncode != 0 else None
        except subprocess.TimeoutExpired:
            error = f"no exit within {SETUP_TIMEOUT_S} s"
        times.append(time.perf_counter() - t0)
        shutil.rmtree(out, ignore_errors=True)
        runner.attempted += 1
        if error is not None:
            runner.failures.append(
                {"op": "setup: " + workloads.op_key(warmup_op),
                 "error": error})
    return statistics.median(times), times


def environment(args, blas_threads) -> dict:
    import numpy as np
    import scipy
    try:
        commit = subprocess.run(
            ["git", "-C", str(harness.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": str(harness.ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((harness.SRC / "hermevp").rglob("*.py")):
        digest.update(path.relative_to(harness.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                           "openblas configuration")},
        "blas_threads": blas_threads,
        "nproc": harness.nproc(),
        "machine": platform.machine(),
    }


def measured_passes(runner, ops, seconds):
    """Repeat the pass while the next one is expected to end by about
    ``seconds``; always at least one pass.  Returns each pass's op times."""
    passes = []
    start = time.perf_counter()
    while True:
        wall, times = runner.run_pass(ops)
        passes.append(times)
        if time.perf_counter() - start + 0.5 * wall >= seconds:
            return passes


def end_to_end_metrics(passes, setup_s):
    """Op times are each op's best time over the passes, and wall_s is the
    pass with every op at its best.  The 2-vCPU machine this was written on
    slows every op by 1.3 to 1.6 times for stretches of seconds to minutes;
    the passes are seconds apart, so an op's best time is rarely taken inside
    such a stretch, while a median over a run, or a whole pass, often is."""
    best = [min(times) for times in zip(*passes)]
    return {
        "op_p50_s": statistics.median(best),
        "wall_s": sum(best),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer_metrics(tracer, runner, traced_wall, untraced_wall):
    stats = tracer.summary()
    values = {}
    for name in PER_LAYER:
        if name == "eigensolver.lambda_rel_dev_max":
            values[name] = runner.lambda_rel_dev
        elif name == "cli.out_bytes":
            values[name] = runner.out_bytes
        elif name == "trace.overhead_frac":
            values[name] = traced_wall / untraced_wall - 1.0
        else:
            target, stat = name.rsplit(".", 1)
            values[name] = (None if target in tracer.absent
                            else stats[target].get(stat, 0))
    return values


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = harness.pin_blas_threads()
    try:
        cli = harness.import_cli()
        with open(HERE / "answers.json") as fh:
            answers = json.load(fh)
    except (harness.MissingProgram, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    ops = workloads.sequence(args.workload, args.seed)
    warmup_op = workloads.grid(args.workload)[0]
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, answers, work)
    try:
        setup_s, setup_samples = measure_setup(runner, warmup_op)
        runner.op(warmup_op)
        passes = measured_passes(runner, ops, args.seconds)
        metrics = end_to_end_metrics(passes, setup_s)
        units = dict(END_TO_END)
        record = {"ops": [workloads.op_key(argv) for argv in ops],
                  "op_times_s": passes, "setup_samples_s": setup_samples}
        if args.trace:
            tracer = Tracer()
            runner.out_bytes = 0
            tracer.install()
            try:
                traced_wall, _ = runner.run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer_metrics(
                tracer, runner, traced_wall,
                statistics.median(sum(times) for times in passes))
            units = {name: per_layer_unit(name) for name in PER_LAYER}
            record["absent"] = tracer.absent
            record["spans"] = [[s.name, s.start, s.end, s.parent, s.op]
                               for s in tracer.spans]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    record.update(environment=environment(args, blas_threads),
                  failures=runner.failures,
                  fail_frac=failed / runner.attempted)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: ({"value": value, "unit": units[name]}
                           if value is not None else
                           {"value": None, "unit": units[name],
                            "absent": True})
                    for name, value in metrics.items()},
    }
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              f".json", "w") as fh:
        json.dump(record, fh)
    for failure in runner.failures[:10]:
        print(f"failed op: {failure['op']}: {failure['error']}",
              file=sys.stderr)
    print(json.dumps({"environment": record["environment"],
                      "fail_frac": record["fail_frac"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
