"""The benchmark's tracer (bench/tracer.py) wraps hermevp functions from
outside and reads three facts off their results: the order of assemble's
K, the length of an FEFunction call's result and Spectrum.iterations.
These tests run one traced solve and one traced convergence op through
hermevp.cli.main and check that every target is found and every counter
is a plain, finite Python int, so the benchmark's result line stays
strict JSON.  Nothing under bench/ is changed.
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


OPS = {
    "solve": ("solve", "--p", "5", "--n", "16", "--modes", "3",
              "--epsilon", "1e-06", "--mesh", "exp"),
    "convergence": ("convergence", "--p", "3", "--n", "16,32,64",
                    "--modes", "2", "--ref-n", "128", "--epsilon", "1e-06",
                    "--mesh", "exp"),
}
COUNTERS = ("assembly.assemble.dofs", "assembly.FEFunction.call.points",
            "eigensolver.solve_smallest.dofs",
            "eigensolver.solve_smallest.modes",
            "eigensolver.solve_smallest.iterations")


@pytest.mark.parametrize("op", sorted(OPS))
def test_traced_op_gives_finite_int_counters(op, tmp_path, capsys):
    tracer = load_tracer()()
    tracer.install()
    try:
        rc = cli.main(list(OPS[op]) + ["--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert tracer.absent == []
    assert set(COUNTERS) <= tracer.counters.keys()
    for key, value in tracer.counters.items():
        assert type(value) is int, key
        assert value > 0 and math.isfinite(value), key
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    json.dumps(summary, allow_nan=False)      # strict JSON throughout
