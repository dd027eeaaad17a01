"""The benchmark's tracer (bench/tracer.py) wraps hermevp functions from
outside and reads three facts off their results: the order of assemble's
K, the length of an FEFunction call's result and Spectrum.iterations.
These tests run one traced op of each solving or studying command
through hermevp.cli.main and check that every target is found, that the
pipeline's calls and cli.resolve_coefficients, under which the
coefficient probe runs, are each recorded once per call made, and that
every counter is a plain, finite Python int, so the benchmark's result
line stays strict JSON.  Nothing under bench/ is changed.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from hermevp import cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    name = "bench_tracer"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, TRACER_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module        # dataclasses look the module up
        spec.loader.exec_module(module)
    return sys.modules[name].Tracer


# op -> (argv, the number of calls each named target must record)
OPS = {
    "solve": (("solve", "--p", "5", "--n", "16", "--modes", "3",
               "--epsilon", "1e-06", "--mesh", "exp"),
              {"cli.resolve_coefficients": 1, "assembly.assemble": 1,
               "eigensolver.solve_smallest": 1}),
    # three rungs and the reference; each rung scores its two modes in
    # one pass: one energy error, and one max error for both u and u'
    "convergence": (("convergence", "--p", "3", "--n", "16,32,64",
                     "--modes", "2", "--ref-n", "128", "--epsilon", "1e-06",
                     "--mesh", "exp"),
                    {"cli.resolve_coefficients": 1,
                     "analysis.compute_reference": 1,
                     "assembly.assemble": 4, "eigensolver.solve_smallest": 4,
                     "analysis.energy_norm_error": 3,
                     "analysis.discrete_max_error": 3,
                     "analysis.sample_points": 3}),
    "table1": (("table1",),
               {"cli.resolve_coefficients": 1, "assembly.assemble": 7,
                "eigensolver.solve_smallest": 7}),
    "interp-study": (("interp-study", "--p", "3", "--n", "16,32,64",
                      "--epsilon", "1e-06", "--mesh", "exp"),
                     {"analysis.interp_rate_study": 1,
                      "element.hermite_interpolant": 3,
                      "cli.resolve_coefficients": 0,
                      "assembly.assemble": 0,
                      "eigensolver.solve_smallest": 0}),
}
# target -> the counters its calls must leave
COUNTERS = {
    "assembly.assemble": {"dofs"},
    "assembly.FEFunction.call": {"points"},
    "element.PiecewiseFunction.call": {"points"},
    "eigensolver.solve_smallest": {"dofs", "modes", "iterations"},
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_traced_op_gives_finite_int_counters(op, tmp_path, capsys):
    argv, calls = OPS[op]
    tracer = load_tracer()()
    tracer.install()
    try:
        rc = cli.main(list(argv) + ["--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert tracer.absent == []
    for key, value in tracer.counters.items():
        assert type(value) is int, key
        assert value > 0 and math.isfinite(value), key
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    # a call the tracer's patch misses would leave its target's span and
    # counters empty, so every call is counted where it is made
    assert {name: summary[name]["calls"] for name in calls} == calls
    for name, keys in COUNTERS.items():
        if summary[name]["calls"]:
            assert keys <= summary[name].keys(), name
    json.dumps(summary, allow_nan=False)      # strict JSON throughout
