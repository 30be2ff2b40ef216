"""Structural rules of the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "topocorr"


def private_imports(path):
    """``from <topocorr module> import _name`` statements anywhere in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("topocorr"):
            continue
        for alias in node.names:
            dunder = alias.name.startswith("__") and alias.name.endswith("__")
            if alias.name.startswith("_") and not dunder:
                yield f"{path.name}:{node.lineno}: imports {alias.name} from {node.module}"


def test_no_module_imports_another_modules_private_helpers():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = [hit for path in files for hit in private_imports(path)]
    assert not found, "\n".join(found)


def test_traced_names_are_module_level_functions():
    # the benchmark's tracer wraps these module globals by name
    spans = SRC.parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(), filename=str(spans))
    targets = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    missing = []
    for module, names in targets.items():
        path = SRC / f"{module.removeprefix('topocorr.')}.py"
        defined = {node.name for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.FunctionDef)}
        missing += [f"{module}.{name}" for name in names if name not in defined]
    assert targets and not missing, "\n".join(missing)


def loaded_after(code):
    """Which of scipy.optimize, scipy.linalg and numpy.polynomial a fresh
    interpreter has loaded after running ``code``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = ("print(sorted({'scipy.optimize', 'scipy.linalg', 'numpy.polynomial'}"
             " & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{probe}"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize or scipy.linalg adds about 0.2 s to every CLI
    # start-up; scipy.linalg loads only when a routine computes with it, and
    # numpy.polynomial (a few ms) never: the quadrature builds its own rule
    assert loaded_after("import topocorr.cli") == "[]"


def test_spectrum_and_winding_leave_scipy_linalg_unloaded(tmp_path):
    # a channel chain's spectrum and the README winding array reach no
    # SciPy routine
    code = "\n".join([
        "from topocorr import cli",
        f"assert cli.main(['spectrum', '--model', 'model_i', '--gamma', '4', '--n-sites', '20',"
        f" '--out', {str(tmp_path / 'spectrum')!r}]) == 0",
        f"assert cli.main(['winding', '--model', 'model_ii_effective', '--gamma', '3',"
        f" '--out', {str(tmp_path / 'winding')!r}]) == 0",
    ])
    assert loaded_after(code) == "[]"
