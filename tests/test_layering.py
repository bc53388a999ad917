"""Package modules use each other only through public names.

Every module under src/emprice is parsed with `ast`; an import of an
underscore-prefixed name from another package module fails the test. Tests
themselves may import private helpers. The numerics core is a leaf: it
imports numpy and nothing from the package.
"""

import ast
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


def test_numerics_is_a_leaf():
    tree = ast.parse((PACKAGE / "numerics.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." if node.level else node.module.split(".")[0])
    assert imported <= {"__future__", "numpy"}
