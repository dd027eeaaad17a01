"""The benchmark's workloads: input grids and the seeded op sequences.

An op is one ``hermevp.cli.main(argv)`` call.  Each workload has a fixed
grid of inputs; ``sequence(workload, seed)`` draws one pass, the fixed op
sequence a run repeats.  The same seed always gives the same pass, and
every op a seed can draw is in ``grid(workload)``, which is what the stored
answers cover.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("study", "fine_solve", "small_mix")

LAYER_EPS = ("1e-04", "1e-05", "1e-06", "1e-07", "1e-08")
LAYER_MESHES = ("exp", "shishkin")
PRESETS = (
    ("--preset", "expx"),
    ("--preset", "const"),
    ("--preset", "custom", "--a-expr", "1+sin(x)**2", "--b-expr", "exp(-x)"),
)

SMALL_EPS = ("1e-02", "1e-03", "1e-04", "1e-05", "1e-06", "1e-07", "1e-08")
SMALL_P = ("3", "4", "5")
SMALL_N = ("8", "16", "24", "32")
ALL_MESHES = ("exp", "shishkin", "uniform")
# interp-study refuses eps >= 1/N; the p=3 ladder ends at N=128
INTERP_EPS = SMALL_EPS[1:]

STUDY_BASE = ("convergence", "--p", "3", "--n", "16,32,64,128",
              "--modes", "2", "--ref-n", "1024")
FINE_BASE = ("solve", "--p", "5", "--n", "512", "--modes", "5")

# small_mix interleaves the other commands with small solves at a fixed
# ratio: per cycle of twelve ops, nine solves, one interp-study, one
# mesh-dump and one table1.  A pass of four cycles holds three solves of
# every (p, N) pair, so every pass has the same mix of problem sizes.
SMALL_CYCLE = "SSSISSSMSSST"
SMALL_CYCLES_PER_PASS = 4

def _layer_ops(base):
    return [base + ("--epsilon", eps, "--mesh", mesh) + preset
            for mesh, preset, eps in itertools.product(LAYER_MESHES, PRESETS,
                                                       LAYER_EPS)]


def _small_solves():
    return [("solve", "--p", p, "--n", n, "--modes", "3", "--epsilon", eps,
             "--mesh", mesh) + preset
            for p, n, eps, mesh, preset in itertools.product(
                SMALL_P, SMALL_N, SMALL_EPS, ALL_MESHES, PRESETS)]


def _interp_ops(variant):
    if variant == "p3":
        return [("interp-study", "--p", "3", "--n", "16,32,64,128",
                 "--epsilon", eps, "--mesh", mesh)
                for eps, mesh in itertools.product(INTERP_EPS, ALL_MESHES)]
    return [("interp-study", "--p", "5", "--n", "16,32,64,128,256",
             "--epsilon", "1e-08", "--mesh", mesh) for mesh in ALL_MESHES]


def _mesh_dumps():
    return [("mesh-dump", "--p", p, "--n", n, "--epsilon", eps, "--mesh", mesh)
            for p, n, eps, mesh in itertools.product(SMALL_P, SMALL_N,
                                                     SMALL_EPS, ALL_MESHES)]


TABLE1 = ("table1",)


def grid(workload: str) -> list:
    """Every op the workload can draw, for any seed."""
    if workload in ("study", "fine_solve"):
        return _layer_ops(STUDY_BASE if workload == "study" else FINE_BASE)
    if workload == "small_mix":
        return (_small_solves() + _interp_ops("p3") + _interp_ops("p5")
                + _mesh_dumps() + [TABLE1])
    raise ValueError(f"unknown workload {workload!r}")


def sequence(workload: str, seed: int) -> list:
    """One pass of the workload: a fixed op sequence drawn from the grid.

    study and fine_solve take one op for each epsilon, with a drawn mesh
    and preset, so every pass holds the same epsilon mix.  small_mix draws
    distinct small solves, the same number for every (p, N), shuffles them
    and interleaves the other commands by SMALL_CYCLE.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("study", "fine_solve"):
        base = STUDY_BASE if workload == "study" else FINE_BASE
        return [base + ("--epsilon", eps, "--mesh", rng.choice(LAYER_MESHES))
                + rng.choice(PRESETS) for eps in LAYER_EPS]
    if workload != "small_mix":
        raise ValueError(f"unknown workload {workload!r}")
    per_size = SMALL_CYCLE.count("S") * SMALL_CYCLES_PER_PASS // (
        len(SMALL_P) * len(SMALL_N))
    solves = []
    for p, n in itertools.product(SMALL_P, SMALL_N):
        solves += rng.sample([op for op in _small_solves()
                              if op[2] == p and op[4] == n], per_size)
    rng.shuffle(solves)
    interps = [_interp_ops("p3"), _interp_ops("p5")]
    dumps = _mesh_dumps()
    out = []
    for cycle in range(SMALL_CYCLES_PER_PASS):
        for kind in SMALL_CYCLE:
            if kind == "S":
                out.append(solves.pop())
            elif kind == "I":
                out.append(rng.choice(interps[cycle % 2]))
            elif kind == "M":
                out.append(rng.choice(dumps))
            else:
                out.append(TABLE1)
    return out


def op_key(argv) -> str:
    """Stable identifier of an op's inputs, used to look up its answer."""
    return " ".join(argv)
