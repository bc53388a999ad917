"""Package modules use each other only through public names.

Every module under src/emprice is parsed with `ast`; an import of an
underscore-prefixed name from another package module fails the test. Tests
themselves may import private helpers. Every name a module lists in `__all__`
must exist in it, and every name the package imports comes from the `__all__`
of the module it is imported from. The numerics core is a leaf: it imports
numpy and nothing from the package.

Start-up cost: scipy subpackages and the process pool load only on the paths
that call them. A fresh interpreter runs one command and reports which modules
it loaded.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "emprice"


def private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        in_package = node.level > 0 or (node.module or "").split(".")[0] == "emprice"
        if in_package:
            source = "." * node.level + (node.module or "")
            found += [f"{source}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path) == []


def test_guard_catches_private_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .inference import _interval, bootstrap_roots\nfrom emprice.rng import _U64\n")
    assert private_imports(path) == [".inference._interval", "emprice.rng._U64"]


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py") if "__all__" in p.read_text()))
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"emprice.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_come_from_all():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = getattr(importlib.import_module(f"emprice.{node.module}"), "__all__", ())
            unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert unlisted == []


def test_numerics_is_a_leaf():
    tree = ast.parse((PACKAGE / "numerics.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." if node.level else node.module.split(".")[0])
    assert imported <= {"__future__", "numpy"}


SAMPLE = str(Path(__file__).parent / "golden" / "infer-sample.txt")

_RUN_AND_LIST_MODULES = """
import contextlib, io, json, sys
from emprice.cli import main
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(json.dumps(sorted(sys.modules)))
"""


def modules_loaded_by(argv: list[str]) -> set[str]:
    """Modules in sys.modules after `import emprice.cli` and, if given, one CLI call."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return set(json.loads(proc.stdout))


def scipy_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_import_loads_no_scipy_and_no_process_pool():
    loaded = modules_loaded_by([])
    assert scipy_modules(loaded) == set()
    assert "concurrent.futures.process" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["auction", "--sample", SAMPLE, "--bidders", "2"],
        ["solve", "--sample", SAMPLE, "--estimator", "interp"],
        ["infer", "--target", "optimal", "--sample", SAMPLE, "--bootstrap", "100", "--seed", "1"],
    ],
    ids=["auction", "solve-interp", "infer-optimal"],
)
def test_sample_commands_load_no_scipy(argv):
    assert scipy_modules(modules_loaded_by(argv)) == set()


def test_beta_solve_loads_only_special():
    loaded = modules_loaded_by(["solve", "--dist", "beta:4:4"])
    assert "scipy.special" in loaded
    assert not {"scipy.stats", "scipy.optimize", "scipy.integrate"} & loaded


def test_screening_solve_loads_optimize_without_stats_or_integrate():
    argv = ["solve", "--sample", SAMPLE, "--estimator", "interp", "--env", "screening", "--grid-size", "500"]
    loaded = modules_loaded_by(argv)
    assert "scipy.optimize" in loaded
    assert not {"scipy.stats", "scipy.integrate"} & loaded
