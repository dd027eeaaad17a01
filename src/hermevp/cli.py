"""Command-line front end.

Subcommands:
    solve         one eigenproblem solve, eigenvalue table plus sampled
                  eigenfunctions and derivatives as CSV
    convergence   mesh ladder against a fine reference, errors and fitted
                  orders, CSV and JSON
    interp-study  interpolation error ladder for the boundary layer
                  function exp(-beta x / epsilon)
    table1        five-mode resolution table for the flagship demo problem
                  (a = e^x, b = x, eps = 1e-6), printed next to published
                  benchmark values
    mesh-dump     node table and grading diagnostics for one mesh

Each option is declared once, in OPTIONS, with its type, default and help.
Values come from flags or from a flat key=value config file (--config);
flags win, and a file value is parsed exactly like its flag.  Every
computed number is produced by a library call; this module parses options
and lays out every file and line a command writes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import typing
from dataclasses import asdict, astuple
from functools import cache

import numpy as np

from .analysis import (InterpRecord, StudyRecord, check_study,
                       convergence_study, default_reference_n,
                       interp_rate_study, solve)
from .assembly import CoefficientSet
from .csvout import CsvWriter, float_fields, write_columns, write_csv
from .eigensolver import SolverConfig
from .errors import HermevpError, InvalidSpec
from .mesh import MeshKind, MeshSpec, build_mesh, check_mesh_bounds

_SAFE_NAMES = {
    "exp": np.exp, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sqrt": np.sqrt, "log": np.log, "pow": np.power, "abs": np.abs,
    "pi": np.pi, "e": np.e,
}

PRESETS = {
    "expx": ("exp(x)", "x"),
    "const": ("1", "0"),
}

# Published benchmark eigenvalues for the flagship demo problem
# (a = e^x, b = x, eps = 1e-6, five lowest modes), one column per
# resolution of the benchmark's own ladder; None marks resolutions the
# benchmark leaves blank.
BENCHMARK_DOF = (2, 8, 14, 20, 26, 32, 38)
BENCHMARK_EIGENVALUES = {
    1: (22.1093, 16.6812, 16.6803, 16.6801, 16.6801, 16.6801, 16.6801),
    2: (94.9592, 64.6500, 64.5403, 64.5203, 64.5148, 64.5130, 64.5122),
    3: (None, 145.7632, 144.7402, 144.3536, 144.2593, 144.2278, 144.2149),
    4: (None, 264.6963, 258.3972, 257.0769, 256.2126, 255.9574, 255.8615),
    5: (None, 423.2341, 410.7243, 402.9403, 401.7117, 400.1930, 399.6647),
}
TABLE_N_LADDER = (8, 12, 16, 20, 24, 28, 32)
# the mode files sample every eigenfunction at these points and the nodes
GRID_POINTS = 2001

# the study CSV's columns and their kinds: StudyRecord's fields, in order,
# which also key the JSON records; interp.csv's are InterpRecord's
CSV_COLUMNS, CSV_KINDS = zip(*typing.get_type_hints(StudyRecord).items())
INTERP_COLUMNS, INTERP_KINDS = zip(
    *typing.get_type_hints(InterpRecord).items())


def make_expr_function(expr: str):
    """Compile an arithmetic expression in x over a fixed small namespace."""
    try:
        code = compile(expr, "<coefficient>", "eval")
    except SyntaxError as exc:
        raise InvalidSpec(f"cannot parse coefficient expression {expr!r}: "
                          f"{exc}") from exc
    for name in code.co_names:
        if name != "x" and name not in _SAFE_NAMES:
            raise InvalidSpec(
                f"name {name!r} not allowed in coefficient expression; "
                f"allowed: x, {', '.join(sorted(_SAFE_NAMES))}"
            )

    def fn(x):
        return eval(code, {"__builtins__": {}}, {**_SAFE_NAMES, "x": x})

    fn.__name__ = expr          # CoefficientSet's messages name it
    return fn


def resolve_coefficients(preset: str, a_expr: str,
                         b_expr: str) -> CoefficientSet:
    if preset == "custom":
        if not a_expr or not b_expr:
            raise InvalidSpec("preset 'custom' needs both --a-expr and --b-expr")
    elif a_expr or b_expr:
        raise InvalidSpec("--a-expr/--b-expr only apply with --preset custom")
    elif preset not in PRESETS:
        raise InvalidSpec(f"unknown preset {preset!r}; choose from "
                          f"{', '.join(sorted(PRESETS))}, custom")
    else:
        a_expr, b_expr = PRESETS[preset]
    return CoefficientSet(a=make_expr_function(a_expr),
                          b=make_expr_function(b_expr))


def read_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidSpec(
                        f"{path}:{lineno}: expected key=value, got {raw!r}"
                    )
                key, val = line.split("=", 1)
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise InvalidSpec(f"cannot read config file {path}: {exc}") from exc
    return values


def _number_list(text: str, cast, what: str) -> list:
    try:
        values = [cast(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what} list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty {what} list {text!r}")
    return values


def _ladder(text: str) -> list:
    """A --n ladder: strictly ascending element counts."""
    values = _number_list(text, int, "integer")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(
            f"mesh sizes must be strictly ascending, got {values}")
    return values


def _float_list(text: str) -> list:
    return _number_list(text, float, "number")


def _ensure_out(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InvalidSpec(f"bad output directory {path}: {exc}") from exc


@cache
def _grid():
    """The mode files' GRID_POINTS abscissae and their read-only fields,
    built once per process."""
    xs = np.linspace(0.0, 1.0, GRID_POINTS)
    fields = float_fields(xs)
    for array in (xs, fields):
        array.setflags(write=False)
    return xs, fields


def cmd_solve(ns: argparse.Namespace) -> int:
    """Solve, then write eigenvalues.csv and one mode_<m>.csv per mode: u
    and u' at the grid points and the nodes.  Only the nodes' x fields
    are rendered per call; each mode's u and u' are rendered in one
    float_fields pass as its file is written."""
    modes, out = ns.modes, ns.out
    coeffs = resolve_coefficients(ns.preset, ns.a_expr, ns.b_expr)
    solver = SolverConfig(k=modes, tol=ns.tol)
    sol = solve(MeshSpec(epsilon=ns.epsilon, beta=ns.beta, p=ns.p,
                         n_elements=ns.n, kind=ns.mesh), coeffs, solver)
    mesh, spectrum = sol.mesh, sol.spectrum

    rows = [(m + 1, spectrum.eigenvalues[m], spectrum.residuals[m])
            for m in range(modes)]
    write_csv(os.path.join(out, "eigenvalues.csv"),
              ("mode", "lambda", "residual"), (int, float, float), rows)

    grid, grid_fields = _grid()
    # a value in both sets keeps the fields of its first occurrence, the
    # grid's: the same double, so the same bytes
    xs, first = np.unique(np.concatenate([grid, mesh.nodes]),
                          return_index=True)
    x_fields = np.concatenate([grid_fields, float_fields(mesh.nodes)])[first]
    u_du = sol.function(xs, (0, 1))
    for m in range(modes):
        u, du = float_fields(u_du[:, :, m].T).reshape(2, -1)
        write_columns(os.path.join(out, f"mode_{m + 1}.csv"),
                      ("x", "u", "du"), (float, float, float),
                      (x_fields, u, du))

    print(f"mesh {ns.mesh.value}, N={ns.n}, p={ns.p}, epsilon={ns.epsilon:g}, "
          f"dof={sol.space.n_free}")
    for m in range(modes):
        flag = " (clustered)" if spectrum.clustered[m] else ""
        print(f"  lambda_{m + 1} = {spectrum.eigenvalues[m]:.12g}"
              f"   residual {spectrum.residuals[m]:.2e}{flag}")
    print(f"wrote eigenvalues.csv and {modes} mode file(s) to {out}")
    return 0


def cmd_convergence(ns: argparse.Namespace) -> int:
    n_values = ns.n
    if len(n_values) < 3:
        raise InvalidSpec(f"need at least 3 mesh sizes, got {n_values}")
    ref_n = default_reference_n(n_values) if ns.ref_n is None else ns.ref_n
    # every file name, study, solver spec and coefficient is checked
    # before the first CSV is opened, so a refused value leaves no file; a
    # study that fails once it runs leaves one ending in # FAILED
    solver = SolverConfig(k=ns.modes, tol=ns.tol)
    specs = {}
    for eps in ns.epsilon:
        stem = f"study_eps{eps:g}"
        if stem in specs:
            raise InvalidSpec(f"--epsilon values {specs[stem].epsilon!r} and "
                              f"{eps!r} would both write {stem}.csv")
        specs[stem] = MeshSpec(epsilon=eps, beta=ns.beta, p=ns.p,
                               n_elements=ref_n, kind=ns.mesh)
        check_study(specs[stem], n_values, solver)
    coeffs = resolve_coefficients(ns.preset, ns.a_expr, ns.b_expr)

    for name, spec in specs.items():
        eps = spec.epsilon
        stem = os.path.join(ns.out, name)
        csv_path = stem + ".csv"
        with open(csv_path, "w", newline="") as fh:
            writer = CsvWriter(fh, CSV_COLUMNS, CSV_KINDS)
            written = []

            def flush(rec: StudyRecord):
                writer.writerow(astuple(rec))
                fh.flush()
                written.append(rec)

            try:
                report = convergence_study(spec, n_values, coeffs, solver,
                                           on_record=flush)
            except HermevpError as exc:
                fh.write(f"# FAILED: {exc}\n")
                fh.flush()
                print(f"epsilon={eps:g}: failed after {len(written)} of "
                      f"{solver.k * len(n_values)} records ({csv_path}): "
                      f"{exc}", file=sys.stderr)
                raise

        payload = {
            "records": [asdict(r) for r in report.records],
            "slopes": report.slope_blocks(),
        }
        with open(stem + ".json", "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        print(f"epsilon={eps:g}: {len(report.records)} records "
              f"-> {csv_path}")
        for mode in report.modes():
            # the JSON's fits; refitting a series it skipped raises the
            # fit's refusal, which ends the command
            lam, energy = (report.order(mode, metric).slope
                           for metric in ("lambda_err_pct", "energy_err_pct"))
            print(f"  mode {mode}: lambda error order {lam:.2f}, "
                  f"energy error order {energy:.2f} (vs dof)")
    return 0


def cmd_interp_study(ns: argparse.Namespace) -> int:
    if len(ns.n) < 2:                   # a fitted order needs two sizes
        raise InvalidSpec(f"need at least 2 mesh sizes, got {ns.n}")
    report = interp_rate_study(ns.mesh, ns.epsilon, ns.beta, ns.p, ns.n)
    path = os.path.join(ns.out, "interp.csv")
    write_csv(path, INTERP_COLUMNS, INTERP_KINDS,
              map(astuple, report.records))
    print(f"interpolation ladder for exp(-beta x/eps), "
          f"epsilon={ns.epsilon:g}, p={ns.p} -> {path}")
    for metric, label in (("max_err", "value (ell=0)"),
                          ("max_err_d1", "derivative (ell=1)"),
                          ("scaled_h2_err", "scaled H2 seminorm")):
        fit = report.order(metric)
        print(f"  {label}: fitted order {fit.slope:.3f}")
    return 0


def cmd_table1(ns: argparse.Namespace) -> int:
    epsilon, p, modes = 1e-6, 3, 5
    coeffs = resolve_coefficients("expx", None, None)

    lambdas = np.empty((modes, len(TABLE_N_LADDER)))
    dofs = []
    for j, n in enumerate(TABLE_N_LADDER):
        sol = solve(MeshSpec(epsilon=epsilon, beta=1.0, p=p, n_elements=n,
                             kind=MeshKind.EXP), coeffs, SolverConfig(k=modes))
        lambdas[:, j] = sol.spectrum.eigenvalues[:modes]
        dofs.append(sol.space.n_free)

    width = 11
    print(f"five lowest modes, a=e^x, b=x, epsilon={epsilon:g}, p={p}, "
          f"graded mesh; benchmark columns aligned by resolution rank")
    header = "mode |" + "".join(f"{f'N={n}':>{width}}"
                                for n in TABLE_N_LADDER)
    print(header)
    print("     |" + "".join(f"{f'dof {d}':>{width}}" for d in dofs))
    for m in range(modes):
        print(f"  {m + 1}  |" + "".join(f"{lambdas[m, j]:>{width}.4f}"
                                        for j in range(len(TABLE_N_LADDER))))
        bench = BENCHMARK_EIGENVALUES[m + 1]
        cells = "".join(f"{'*':>{width}}" if b is None
                        else f"{b:>{width}.4f}" for b in bench)
        print("     |" + cells + "   benchmark"
              f" (dof {', '.join(str(d) for d in BENCHMARK_DOF)})")
    print("  * no benchmark value at this resolution")

    rows = []
    finest = len(TABLE_N_LADDER) - 1
    for m in range(modes):
        for j, n in enumerate(TABLE_N_LADDER):
            bench = BENCHMARK_EIGENVALUES[m + 1][j]
            dev = None if bench is None else \
                100.0 * abs(lambdas[m, j] - bench) / bench
            rows.append((m + 1, n, dofs[j], lambdas[m, j], BENCHMARK_DOF[j],
                         bench, dev))
    path = os.path.join(ns.out, "table1.csv")
    write_csv(path, ("mode", "N", "dof", "lambda_h", "benchmark_dof",
                     "benchmark_lambda", "rel_dev_pct"),
              (int, int, int, float, int, float, float), rows)

    print("finest-resolution comparison:")
    for m in range(modes):
        bench = BENCHMARK_EIGENVALUES[m + 1][-1]
        dev = 100.0 * abs(lambdas[m, finest] - bench) / bench
        print(f"  mode {m + 1}: computed {lambdas[m, finest]:.6f}  "
              f"benchmark {bench:.4f}  deviation {dev:.4f}%")
    print(f"wrote {path}")
    return 0


def cmd_mesh_dump(ns: argparse.Namespace) -> int:
    kind = ns.mesh
    mesh = build_mesh(MeshSpec(epsilon=ns.epsilon, beta=ns.beta, p=ns.p,
                               n_elements=ns.n, kind=kind))
    path = os.path.join(ns.out, "mesh.csv")
    # one row per node; the last node has no element to its right
    regions = [r.value for r in mesh.regions] + ["-"]
    write_csv(path, ("index", "x", "region_right"), (int, float, str),
              zip(range(len(mesh.nodes)), mesh.nodes.tolist(), regions))
    print(f"{kind.value} mesh, N={ns.n}, epsilon={ns.epsilon:g} -> {path}")
    if kind is not MeshKind.UNIFORM:
        print(f"  transition abscissa {mesh.transition_left():.6g}")
    if kind is MeshKind.EXP:
        report = check_mesh_bounds(mesh)
        print(f"  layer width bounds satisfied: {report.all_satisfied}")
        print(f"  transition decay {report.transition_decay:.6g} = "
              f"{report.transition_decay / report.decay_bound:.6g} "
              f"* N^-(p+1)")
    return 0


# flag -> (type, default, help).  argparse runs a string default, and a
# config-file value, through the flag's type like a command-line value.
OPTIONS = {
    "epsilon": (float, 1e-6, "perturbation parameter"),
    "beta": (float, 1.0, "layer strength"),
    "p": (int, 3, "element degree >= 3"),
    "n": (int, 64, "element count"),
    "mesh": (MeshKind, "exp", "mesh kind: exp, shishkin or uniform"),
    "modes": (int, 1, "number of eigenpairs"),
    "preset": (str, "expx", "expx: a=e^x, b=x; const: a=1, b=0; or custom"),
    "a_expr": (str, None, "a(x) expression for --preset custom"),
    "b_expr": (str, None, "b(x) expression for --preset custom"),
    "tol": (float, 1e-11, "solver residual tolerance"),
    "ref_n": (int, None, "reference element count, max(512, 8 max N) if None"),
    "out": (str, ".", "output directory"),
    "config": (str, None, "key=value file; flags override its values"),
}
COMMON_FLAGS = ("out", "config")
MESH_FLAGS = ("epsilon", "beta", "p", "n", "mesh")
SOLVE_FLAGS = MESH_FLAGS + ("modes", "preset", "a_expr", "b_expr", "tol")
N_LADDER = {"n": (_ladder, "16,32,64,128", "comma list of element counts")}

# command -> (handler, help, flags besides COMMON_FLAGS, OPTIONS overrides)
COMMANDS = {
    "solve": (cmd_solve, "solve one eigenproblem", SOLVE_FLAGS, {}),
    "convergence": (cmd_convergence, "mesh-ladder convergence study",
                    SOLVE_FLAGS + ("ref_n",),
                    {**N_LADDER, "epsilon": (_float_list, "1e-6",
                                             "comma list of epsilons")}),
    "interp-study": (cmd_interp_study, "layer-function interpolation rates",
                     MESH_FLAGS, N_LADDER),
    "table1": (cmd_table1, "five-mode benchmark table (fixed problem)", (),
               {}),
    "mesh-dump": (cmd_mesh_dump, "write mesh nodes and diagnostics",
                  MESH_FLAGS, {}),
}


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Show each flag's type as its metavar and its default in its help."""

    def _get_default_metavar_for_optional(self, action):
        return action.type.__name__.strip("_")


class _Parser(argparse.ArgumentParser):
    """Raise every parse error, from a bad value to an unknown or ambiguous
    flag or a missing command, as InvalidSpec instead of printing usage
    and exiting.

    Every token that starts with one dash and is not a known flag counts
    as a value, so -inf, -1e-3 and -8,12,16 reach their flag's type check;
    argparse's own pattern admits only plain negative decimals.  The
    pattern is a private argparse attribute; Python 3.11 is the only
    version this has been tested on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[^-]")

    def error(self, message):
        raise InvalidSpec(message)


def build_parser():
    """The top-level parser and each command's subparser by name, every
    command with its help and its flags."""
    parser = _Parser(
        prog="hermevp",
        description="Fourth-order singularly perturbed eigenproblems with "
                    "C1 Hermite elements on layer-adapted meshes.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, (run, text, flags, overrides) in COMMANDS.items():
        sp = sub.add_parser(name, help=text, formatter_class=_HelpFormatter)
        sp.set_defaults(run=run)
        for dest in flags + COMMON_FLAGS:
            type_, default, help_ = overrides.get(dest, OPTIONS[dest])
            sp.add_argument("--" + dest.replace("_", "-"), type=type_,
                            default=default, help=help_)
    return parser, sub.choices


# parse_args leaves a parser as it was, so every plain parse reuses one
_cached_parser = cache(build_parser)


def _parse_options(argv=None) -> argparse.Namespace:
    """Parse argv; with --config, the file's values for this command's
    flags become the defaults of a fresh parser, which parses argv again,
    so no file value outlives its call."""
    argv = sys.argv[1:] if argv is None else argv
    first = argv[0] if argv else ""
    parser, _ = _cached_parser()
    try:
        ns = parser.parse_args(argv)
    except InvalidSpec:
        if not first.startswith("-"):
            raise
        raise InvalidSpec(
            f"{first} comes before the command; flags go after it, as in "
            f"hermevp solve {first} ...") from None
    if ns.config is None:
        return ns
    flags = COMMANDS[ns.command][2] + COMMON_FLAGS
    values = read_config_file(ns.config)
    parser, commands = build_parser()
    commands[ns.command].set_defaults(
        **{key: value for key, value in values.items() if key in flags})
    try:
        return parser.parse_args(argv)
    except InvalidSpec as exc:
        raise InvalidSpec(f"{ns.config}: {exc}") from None


def main(argv=None) -> int:
    try:
        ns = _parse_options(argv)
        _ensure_out(ns.out)
        return ns.run(ns)
    except HermevpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
