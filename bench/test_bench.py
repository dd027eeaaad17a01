"""Self-tests of the benchmark, not of hermevp:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import types
from pathlib import Path

import pytest

import harness
import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SMALL_SOLVE = ("solve", "--p", "3", "--n", "8", "--modes", "3", "--epsilon",
               "1e-02", "--mesh", "exp", "--preset", "expx")


@pytest.fixture(scope="module")
def cli():
    return harness.import_cli()


@pytest.fixture(scope="module")
def answers():
    with open(HERE / "answers.json") as fh:
        return json.load(fh)


def test_answers_cover_every_input_a_seed_can_draw(answers):
    for name in workloads.WORKLOADS:
        grid = {workloads.op_key(argv) for argv in workloads.grid(name)}
        assert grid <= answers.keys(), name
        for seed in range(50):
            drawn = {workloads.op_key(argv)
                     for argv in workloads.sequence(name, seed)}
            assert drawn <= grid, (name, seed)


def test_same_seed_gives_same_sequence():
    for name in workloads.WORKLOADS:
        assert workloads.sequence(name, 7) == workloads.sequence(name, 7)
        assert workloads.sequence(name, 7) != workloads.sequence(name, 8)


def _runner(main, answers, tmp_path):
    return run.Runner(types.SimpleNamespace(main=main), answers, tmp_path)


def test_unchanged_op_passes(cli, answers, tmp_path):
    runner = _runner(cli.main, answers, tmp_path)
    runner.op(SMALL_SOLVE)
    assert runner.attempted == 1 and runner.failures == []


def test_eigenvalue_off_by_1e8_relative_is_a_failed_op(cli, answers,
                                                       tmp_path):
    def perturbed_main(argv):
        rc = cli.main(argv)
        path = Path(argv[argv.index("--out") + 1]) / "eigenvalues.csv"
        lines = path.read_text().splitlines()
        mode, lam, res = lines[2].split(",")
        lines[2] = f"{mode},{float(lam) * (1 + 1e-8)!r},{res}"
        path.write_text("\n".join(lines) + "\n")
        return rc

    runner = _runner(perturbed_main, answers, tmp_path)
    runner.op(SMALL_SOLVE)
    assert len(runner.failures) == 1
    assert "lambda_2" in runner.failures[0]["error"]
    assert runner.lambda_rel_dev == pytest.approx(1e-8, rel=1e-3)


def test_nonzero_exit_code_and_exception_are_failed_ops(cli, answers,
                                                        tmp_path):
    def nonzero(argv):
        cli.main(argv)
        return 4

    def raises(argv):
        raise ValueError("boom")

    for main in (nonzero, raises):
        runner = _runner(main, answers, tmp_path)
        runner.op(SMALL_SOLVE)
        assert runner.attempted == 1 and len(runner.failures) == 1


def test_self_time_on_a_three_level_span_tree():
    now = [0.0]

    def tick(dt):
        now[0] += dt

    tracer = Tracer(targets=(), clock=lambda: now[0])
    leaf = tracer.wrap("leaf", lambda: tick(1.0))

    def middle_body():
        tick(2.0)
        leaf()
        tick(3.0)
        leaf()

    middle = tracer.wrap("middle", middle_body)

    def root_body():
        tick(4.0)
        middle()
        tick(5.0)
        middle()

    tracer.wrap("root", root_body)()
    by_name = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        by_name.setdefault(span.name, []).append(self_s)
    assert by_name == {"root": [9.0], "middle": [5.0, 5.0],
                       "leaf": [1.0, 1.0, 1.0, 1.0]}
    parents = [tracer.spans[s.parent].name if s.parent is not None else None
               for s in tracer.spans]
    assert parents == [None, "root", "middle", "middle", "root", "middle",
                       "middle"]


def test_tracer_wraps_every_binding_and_records_absent_targets(cli):
    import hermevp.analysis
    import hermevp.mesh

    original = hermevp.mesh.build_mesh
    tracer = Tracer(targets=(
        ("mesh.build_mesh", "hermevp.mesh", "build_mesh", None),
        ("mesh.gone", "hermevp.mesh", "no_such_function", None),
        ("mesh.Gone.call", "hermevp.mesh", "NoSuchClass.__call__", None),
    ))
    tracer.install()
    try:
        for module in (hermevp.mesh, hermevp.analysis, cli):
            assert module.build_mesh is not original
    finally:
        tracer.uninstall()
    assert cli.build_mesh is original
    assert tracer.absent == ["mesh.gone", "mesh.Gone.call"]


def test_benchmark_json_names_the_metrics_run_prints():
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, run.per_layer_unit(name)) for name in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


def test_small_mix_keeps_its_ratio_and_size_mix():
    ops = workloads.sequence("small_mix", 3)
    counts = {}
    for argv in ops:
        counts[argv[0]] = counts.get(argv[0], 0) + 1
    cycles = workloads.SMALL_CYCLES_PER_PASS
    assert counts == {"solve": 9 * cycles, "interp-study": cycles,
                      "mesh-dump": cycles, "table1": cycles}
    sizes = {}
    for argv in ops:
        if argv[0] == "solve":
            sizes[argv[2], argv[4]] = sizes.get((argv[2], argv[4]), 0) + 1
    assert len(sizes) == 12 and set(sizes.values()) == {3}
