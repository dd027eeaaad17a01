import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hermevp
import hermevp.analysis
import hermevp.cli
import hermevp.mesh
from hermevp import HermevpError

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in hermevp.__all__ if not hasattr(hermevp, name)]
    assert missing == []


def error_classes():
    """HermevpError and every subclass of it."""
    seen, todo = [], [HermevpError]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def test_error_exit_codes_distinct():
    seen = error_classes()
    codes = [cls.exit_code for cls in seen]
    assert len(seen) > 1
    assert len(set(codes)) == len(codes)
    assert not {0, 1} & set(codes)


def test_import_does_not_load_sparse_linalg():
    code = ("import sys, hermevp; "
            "print('scipy.sparse.linalg' in sys.modules)")
    src = os.path.dirname(os.path.dirname(hermevp.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_only_the_cli_lays_out_files():
    # the command-line module decides what each command writes; the mesh
    # and analysis modules return data and import no output module
    for module in (hermevp.mesh, hermevp.analysis):
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert not imported & {"json", ".csvout", "hermevp.csvout"}, \
            module.__name__


def calls_to(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def test_one_pipeline():
    # the command-line module reaches the discretize-and-solve chain only
    # through analysis.solve, the one function that calls solve_smallest
    tree = ast.parse(inspect.getsource(hermevp.cli))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not imported & {"assemble", "solve_smallest", "shape_table",
                           "FEFunction"}
    package = Path(hermevp.__file__).parent
    calls = {path.stem: len(calls_to(ast.parse(path.read_text()),
                                      "solve_smallest"))
             for path in package.glob("*.py")}
    assert {stem: n for stem, n in calls.items() if n} == {"analysis": 1}
    solve = ast.parse(inspect.getsource(hermevp.analysis.solve))
    assert len(calls_to(solve, "solve_smallest")) == 1


def test_one_space():
    # the discrete space's shape table is tabulated in one place: every
    # caller in the package reads it from a Space
    package = Path(hermevp.__file__).parent
    calls = {path.stem: len(calls_to(ast.parse(path.read_text()),
                                      "shape_table"))
             for path in package.glob("*.py")}
    assert {stem: n for stem, n in calls.items() if n} == {"assembly": 1}
    space = ast.parse(inspect.getsource(hermevp.Space))
    assert len(calls_to(space, "shape_table")) == 1


def test_cli_builds_meshes_only_for_mesh_dump():
    # a study's meshes are built, once each, by the analysis module; the
    # command-line module builds one only to write it out
    tree = ast.parse(inspect.getsource(hermevp.cli))
    calls = {node.name: len(calls_to(node, "build_mesh"))
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {name: n for name, n in calls.items() if n} == {"cmd_mesh_dump": 1}
    assert len(calls_to(tree, "build_mesh")) == 1


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    lams = namespace["sol"].spectrum.eigenvalues
    # the flagship problem's lowest mode, as in the benchmark table
    assert lams[0] == pytest.approx(16.6801, rel=1e-5)
    assert len(capsys.readouterr().out.splitlines()) >= 3


def test_readme_exit_code_table_names_every_error():
    # one row per code from 2 to 19, each error named in its code's row
    section = README.read_text().split("## Exit codes\n", 1)[1]
    rows = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("|") and cells[0].isdigit():
            rows[int(cells[0])] = cells[1]
    for cls in error_classes():
        assert f"`{cls.__name__}`" in rows.get(cls.exit_code, ""), cls
    assert sorted(rows) == list(range(2, 20))


def test_derived_values_are_not_inputs():
    # a_floor, an FEFunction's degree, a Space's dof numbering, shape
    # table and quadrature points, a Solution's mesh, the energy error's
    # Gauss rule and the study's samples per region are derived, and its
    # fits' abscissa is fixed: none of them is given; an interpolation
    # ladder's settings live in its rows
    def settable(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert settable(hermevp.CoefficientSet) == ["a", "b"]
    assert settable(hermevp.FEFunction) == ["mesh", "node_values",
                                            "node_slopes", "bubbles"]
    assert settable(hermevp.Space) == ["mesh", "degree"]
    assert list(inspect.signature(hermevp.FEFunction.from_dof_vector)
                .parameters) == ["space", "vec"]
    assert list(inspect.signature(hermevp.convergence_study).parameters) \
        == ["ref_spec", "n_values", "coeffs", "config", "on_record"]
    assert list(inspect.signature(hermevp.sample_points).parameters) \
        == ["mesh"]
    assert settable(hermevp.Solution) == ["space", "spectrum", "function"]
    for error in (hermevp.energy_norm_error, hermevp.discrete_max_error):
        assert list(inspect.signature(error).parameters) == ["u_h", "u_ref"]
    assert settable(hermevp.InterpReport) == ["records"]
    # every study fit is taken against dof, and a fit holds only its line
    for method in (hermevp.StudyReport.series, hermevp.StudyReport.order):
        assert list(inspect.signature(method).parameters) \
            == ["self", "mode", "metric"]
    assert settable(hermevp.SlopeFit) == ["slope", "intercept",
                                          "max_log_residual"]
