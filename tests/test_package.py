import ast
import inspect
import os
import subprocess
import sys

import hermevp
import hermevp.analysis
import hermevp.mesh
from hermevp import HermevpError


def test_every_exported_name_resolves():
    missing = [name for name in hermevp.__all__ if not hasattr(hermevp, name)]
    assert missing == []


def test_error_exit_codes_distinct():
    seen, todo = [], [HermevpError]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
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
