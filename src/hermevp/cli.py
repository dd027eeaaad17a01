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

Options may come from flags or from a flat key=value config file
(--config); flags win.  Every computed number is produced by a library
call; this module only parses options and formats output.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import (CSV_COLUMNS, CSV_KINDS, StudyRecord,
                       convergence_study, interp_rate_study)
from .assembly import CoefficientSet, FEFunction, assemble
from .csvout import CsvWriter, format_floats, write_csv
from .eigensolver import SolverConfig, solve_smallest
from .element import shape_table
from .errors import CoefficientViolation, HermevpError, InvalidSpec
from .mesh import (MeshKind, MeshSpec, build_mesh, check_mesh_bounds,
                   mesh_to_csv)

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
        # NaN/inf results are reported as CoefficientViolation, not warnings
        with np.errstate(all="ignore"):
            return eval(code, {"__builtins__": {}}, {**_SAFE_NAMES, "x": x})

    return fn


def resolve_coefficients(preset: str, a_expr: str, b_expr: str,
                         epsilon: float) -> CoefficientSet:
    if preset == "custom":
        if not a_expr or not b_expr:
            raise InvalidSpec("preset 'custom' needs both --a-expr and --b-expr")
    else:
        if a_expr or b_expr:
            raise InvalidSpec(
                "--a-expr/--b-expr only apply with --preset custom"
            )
        try:
            a_expr, b_expr = PRESETS[preset]
        except KeyError:
            raise InvalidSpec(
                f"unknown preset {preset!r}; choose from "
                f"{', '.join(sorted(PRESETS))}, custom"
            ) from None
    a = make_expr_function(a_expr)
    b = make_expr_function(b_expr)
    probe = np.linspace(0.0, 1.0, 4097)
    a_min = float(np.min(np.broadcast_to(a(probe), probe.shape)))
    if not a_min > 0.0:                              # also catches NaN
        raise CoefficientViolation(
            f"a(x) = {a_expr!r} reaches {a_min} on [0, 1], need a > 0"
        )
    return CoefficientSet(a=a, b=b, epsilon=epsilon,
                          a_floor=a_min * (1.0 - 1e-9))


@dataclass(frozen=True)
class ProblemConfig:
    """One resolved solve request."""

    epsilon: float
    beta: float
    p: int
    n: int
    mesh: MeshKind
    modes: int
    coeffs: CoefficientSet
    solver: SolverConfig
    out: str


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


def _int_list(text: str):
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise InvalidSpec(f"bad integer list {text!r}") from exc


def _float_list(text: str):
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise InvalidSpec(f"bad number list {text!r}") from exc


class _Options:
    """Flag values merged over config-file values merged over defaults."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.file = read_config_file(ns.config) if getattr(ns, "config", None) \
            else {}

    def get(self, key: str, cast, default=None):
        flag = getattr(self.ns, key, None)
        if flag is not None:
            return cast(flag) if isinstance(flag, str) else flag
        if key in self.file:
            return cast(self.file[key])
        return default


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _build_problem(opts: _Options, default_modes: int = 1) -> ProblemConfig:
    epsilon = opts.get("epsilon", float, 1e-6)
    beta = opts.get("beta", float, 1.0)
    p = opts.get("p", int, 3)
    n = opts.get("n", int, 64)
    kind = MeshKind(opts.get("mesh", str, "exp"))
    modes = opts.get("modes", int, default_modes)
    tol = opts.get("tol", float, 1e-11)
    preset = opts.get("preset", str, "expx")
    a_expr = opts.get("a_expr", str, None)
    b_expr = opts.get("b_expr", str, None)
    out = _ensure_out(opts.get("out", str, "."))
    coeffs = resolve_coefficients(preset, a_expr, b_expr, epsilon)
    solver = SolverConfig(k=modes, tol=tol)
    return ProblemConfig(epsilon=epsilon, beta=beta, p=p, n=n, mesh=kind,
                         modes=modes, coeffs=coeffs, solver=solver, out=out)


def cmd_solve(config: ProblemConfig) -> int:
    spec = MeshSpec(epsilon=config.epsilon, beta=config.beta, p=config.p,
                    n_elements=config.n, kind=config.mesh)
    mesh = build_mesh(spec)
    K, M, dofmap = assemble(mesh, shape_table(config.p), config.coeffs)
    spectrum = solve_smallest(K, M, config.solver)

    rows = [(m + 1, spectrum.eigenvalues[m], spectrum.residuals[m])
            for m in range(config.modes)]
    write_csv(os.path.join(config.out, "eigenvalues.csv"),
              ("mode", "lambda", "residual"), (int, float, float), rows)

    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 2001), mesh.nodes]))
    x_fields = format_floats(xs.tolist())
    for m in range(config.modes):
        u = FEFunction.from_dof_vector(mesh, dofmap,
                                       spectrum.eigenvectors[:, m])
        u_du = u(xs, (0, 1))
        write_csv(os.path.join(config.out, f"mode_{m + 1}.csv"),
                  ("x", "u", "du"), (str, float, float),
                  zip(x_fields, u_du[:, 0].tolist(), u_du[:, 1].tolist()))

    print(f"mesh {config.mesh.value}, N={config.n}, p={config.p}, "
          f"epsilon={config.epsilon:g}, dof={dofmap.n_free}")
    for m in range(config.modes):
        flag = " (clustered)" if spectrum.clustered[m] else ""
        print(f"  lambda_{m + 1} = {spectrum.eigenvalues[m]:.12g}"
              f"   residual {spectrum.residuals[m]:.2e}{flag}")
    print(f"wrote eigenvalues.csv and {config.modes} mode file(s) "
          f"to {config.out}")
    return 0


def cmd_convergence(opts: _Options) -> int:
    n_values = opts.get("n", _int_list, [16, 32, 64, 128])
    if isinstance(n_values, int):
        n_values = [n_values]
    if len(n_values) < 3:
        raise InvalidSpec(f"need at least 3 mesh sizes, got {n_values}")
    if sorted(n_values) != list(n_values):
        raise InvalidSpec(f"mesh sizes must be ascending, got {n_values}")
    eps_values = opts.get("epsilon", _float_list, [1e-6])
    if isinstance(eps_values, float):
        eps_values = [eps_values]
    beta = opts.get("beta", float, 1.0)
    p = opts.get("p", int, 3)
    kind = MeshKind(opts.get("mesh", str, "exp"))
    modes = opts.get("modes", int, 1)
    tol = opts.get("tol", float, 1e-11)
    ref_n = opts.get("ref_n", int, None)
    preset = opts.get("preset", str, "expx")
    a_expr = opts.get("a_expr", str, None)
    b_expr = opts.get("b_expr", str, None)
    out = _ensure_out(opts.get("out", str, "."))

    for eps in eps_values:
        coeffs = resolve_coefficients(preset, a_expr, b_expr, eps)
        stem = os.path.join(out, f"study_eps{eps:g}")
        csv_path = stem + ".csv"
        with open(csv_path, "w", newline="") as fh:
            writer = CsvWriter(fh, CSV_COLUMNS, CSV_KINDS)

            def flush(rec: StudyRecord, writer=writer, fh=fh):
                writer.writerow([getattr(rec, c) for c in CSV_COLUMNS])
                fh.flush()

            try:
                report = convergence_study(kind, eps, beta, p, n_values,
                                           coeffs, modes=modes, ref_n=ref_n,
                                           tol=tol, on_record=flush)
            except HermevpError as exc:
                fh.write(f"# FAILED: {exc}\n")
                fh.flush()
                print(f"epsilon={eps:g}: failed after partial results "
                      f"({csv_path}): {exc}", file=sys.stderr)
                raise

        report.to_json(stem + ".json")
        print(f"epsilon={eps:g}: {len(report.records)} records "
              f"-> {csv_path}")
        for mode in report.modes():
            fit = report.order(mode, "lambda_err_pct", vs="dof")
            efit = report.order(mode, "energy_err_pct", vs="dof")
            print(f"  mode {mode}: lambda error order {fit.slope:.2f}, "
                  f"energy error order {efit.slope:.2f} (vs dof)")
    return 0


def cmd_interp_study(opts: _Options) -> int:
    epsilon = opts.get("epsilon", float, 1e-6)
    beta = opts.get("beta", float, 1.0)
    p = opts.get("p", int, 3)
    n_values = opts.get("n", _int_list, [16, 32, 64, 128])
    if isinstance(n_values, int):
        n_values = [n_values]
    kind = opts.get("mesh", str, "exp")
    out = _ensure_out(opts.get("out", str, "."))

    report = interp_rate_study(kind, epsilon, beta, p, n_values)
    rows = [(report.mesh_kind.value, report.epsilon, report.beta, report.p,
             r.n_elements, r.max_err, r.max_err_d1, r.scaled_h2_err)
            for r in report.records]
    path = os.path.join(out, "interp.csv")
    write_csv(path, ("mesh_kind", "epsilon", "beta", "p", "N", "max_err",
                     "max_err_d1", "scaled_h2_err"),
              (str, float, float, int, int, float, float, float), rows)
    print(f"interpolation ladder for exp(-beta x/eps), "
          f"epsilon={epsilon:g}, p={p} -> {path}")
    for metric, label in (("max_err", "value (ell=0)"),
                          ("max_err_d1", "derivative (ell=1)"),
                          ("scaled_h2_err", "scaled H2 seminorm")):
        fit = report.order(metric)
        print(f"  {label}: fitted order {fit.slope:.3f}")
    return 0


def cmd_table1(opts: _Options) -> int:
    out = _ensure_out(opts.get("out", str, "."))
    epsilon, p, modes = 1e-6, 3, 5
    coeffs = resolve_coefficients("expx", None, None, epsilon)
    shapes = shape_table(p)

    lambdas = np.empty((modes, len(TABLE_N_LADDER)))
    dofs = []
    for j, n in enumerate(TABLE_N_LADDER):
        mesh = build_mesh(MeshSpec(epsilon=epsilon, beta=1.0, p=p,
                                   n_elements=n, kind=MeshKind.EXP))
        K, M, dofmap = assemble(mesh, shapes, coeffs)
        spectrum = solve_smallest(K, M, SolverConfig(k=modes))
        lambdas[:, j] = spectrum.eigenvalues[:modes]
        dofs.append(dofmap.n_free)

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
    path = os.path.join(out, "table1.csv")
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


def cmd_mesh_dump(opts: _Options) -> int:
    epsilon = opts.get("epsilon", float, 1e-6)
    beta = opts.get("beta", float, 1.0)
    p = opts.get("p", int, 3)
    n = opts.get("n", int, 64)
    kind = MeshKind(opts.get("mesh", str, "exp"))
    out = _ensure_out(opts.get("out", str, "."))

    mesh = build_mesh(MeshSpec(epsilon=epsilon, beta=beta, p=p,
                               n_elements=n, kind=kind))
    path = os.path.join(out, "mesh.csv")
    mesh_to_csv(mesh, path)
    print(f"{kind.value} mesh, N={n}, epsilon={epsilon:g} -> {path}")
    if kind is not MeshKind.UNIFORM:
        print(f"  transition abscissa {mesh.transition_left():.6g}")
    if kind is MeshKind.EXP:
        report = check_mesh_bounds(mesh)
        print(f"  layer width bounds satisfied: {report.all_satisfied}")
        print(f"  transition decay {report.transition_decay:.6g} = "
              f"{report.transition_decay / report.decay_bound:.6g} "
              f"* N^-(p+1)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermevp",
        description="Fourth-order singularly perturbed eigenproblems with "
                    "C1 Hermite elements on layer-adapted meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(sp, *names):
        if "epsilon" in names:
            sp.add_argument("--epsilon", help="perturbation parameter, or a "
                            "comma list for studies")
        if "beta" in names:
            sp.add_argument("--beta", help="layer strength (default 1.0)")
        if "p" in names:
            sp.add_argument("--p", help="element degree >= 3 (default 3)")
        if "n" in names:
            sp.add_argument("--n", help="element count, or a comma list "
                            "for studies")
        if "mesh" in names:
            sp.add_argument("--mesh", choices=[k.value for k in MeshKind],
                            help="mesh kind (default exp)")
        if "modes" in names:
            sp.add_argument("--modes", help="number of eigenpairs")
        if "preset" in names:
            sp.add_argument("--preset", choices=["expx", "const", "custom"],
                            help="coefficient preset (default expx: "
                            "a=e^x, b=x; const: a=1, b=0)")
            sp.add_argument("--a-expr", dest="a_expr",
                            help="a(x) expression for --preset custom")
            sp.add_argument("--b-expr", dest="b_expr",
                            help="b(x) expression for --preset custom")
        if "tol" in names:
            sp.add_argument("--tol", help="solver residual tolerance")
        if "ref_n" in names:
            sp.add_argument("--ref-n", dest="ref_n",
                            help="reference mesh element count")
        sp.add_argument("--out", help="output directory (default .)")
        sp.add_argument("--config", help="flat key=value config file; "
                        "flags override file values")

    add(sub.add_parser("solve", help="solve one eigenproblem"),
        "epsilon", "beta", "p", "n", "mesh", "modes", "preset", "tol")
    add(sub.add_parser("convergence", help="mesh-ladder convergence study"),
        "epsilon", "beta", "p", "n", "mesh", "modes", "preset", "tol",
        "ref_n")
    add(sub.add_parser("interp-study",
                       help="layer-function interpolation rates"),
        "epsilon", "beta", "p", "n", "mesh")
    add(sub.add_parser("table1",
                       help="five-mode benchmark table (fixed problem)"))
    add(sub.add_parser("mesh-dump", help="write mesh nodes and diagnostics"),
        "epsilon", "beta", "p", "n", "mesh")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        opts = _Options(ns)
        if ns.command == "solve":
            return cmd_solve(_build_problem(opts))
        if ns.command == "convergence":
            return cmd_convergence(opts)
        if ns.command == "interp-study":
            return cmd_interp_study(opts)
        if ns.command == "table1":
            return cmd_table1(opts)
        if ns.command == "mesh-dump":
            return cmd_mesh_dump(opts)
        parser.error(f"unknown command {ns.command!r}")
    except HermevpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
