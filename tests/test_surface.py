"""The package's import surface: no module imports a name it does not use,
and every ``__all__`` entry names something the module defines or imports."""

import ast
import importlib
from pathlib import Path

import pytest

import mirrorsolve

PACKAGE = Path(mirrorsolve.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """name bound -> line, for every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                names[bound] = node.lineno
    return names


def _declared_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used and name not in _declared_all(tree)}
    assert not unused, f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_all_entry_resolves(path):
    module = importlib.import_module(f"mirrorsolve.{path.stem}")
    exported = _declared_all(ast.parse(path.read_text()))
    assert exported == list(getattr(module, "__all__", []))
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{path.name} lists undefined names {missing}"
