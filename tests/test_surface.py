"""The package's import surface: no module imports a name it does not use,
every ``__all__`` entry names something the module defines or imports, the
package root re-exports nothing, the counts of public names and of settable
values are pinned, and the package's code lines have a ceiling."""

import ast
import importlib
import inspect
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import mirrorsolve
from mirrorsolve import config, operators

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


#: names in the modules' ``__all__`` lists together; a new public function,
#: class or wrapper has to change this number on purpose (58 since both
#: methods log ``landweber.IterateRecord`` and ``smd.SmdRecord`` is gone)
PUBLIC_NAMES = 58

#: settable values: the keyword parameters of the public names, the config
#: keys and the CLI flags; a new knob has to change these numbers on purpose
#: (34 and 7 since the grid size is the problem kind's, ``[problem] n`` and
#: ``ExperimentConfig.n`` are gone, and ``--fast`` picks the coarse grid; 5
#: flags since a single run is ``sweep --delta D --seed S``, the stochastic
#: study is the ``sweep`` of its config, and the ``run`` and ``smd``
#: subcommands are gone)
KEYWORD_PARAMETERS, CONFIG_KEYS, CLI_FLAGS = 34, 7, 5


def _keyword_parameters(obj):
    """Parameters with a default or keyword-only, of a function, or of a
    class's ``__init__`` and public methods (a NamedTuple record has none)."""
    if inspect.isfunction(obj):
        fns = [obj]
    elif inspect.isclass(obj):
        fns = [obj.__init__] + [getattr(obj, name) for name, attr in vars(obj).items()
                                if not name.startswith("_")
                                and (inspect.isfunction(attr) or isinstance(attr, classmethod))]
    else:
        return []
    params = []
    for fn in fns:
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):  # a C-level __init__
            continue
        params += [p for p in sig.parameters.values()
                   if p.kind is p.KEYWORD_ONLY or p.default is not p.empty]
    return params


@pytest.mark.parametrize("cls, methods", [
    (operators.ForwardOperator, {"linearize_values", "norm_bound"}),
    (operators.EllipticCoefficient, {"linearize_values", "norm_bound"}),
    (operators.LinearIntegral,
     {"linearize_values", "norm_bound", "apply_values", "adjoint_values"}),
], ids=["ForwardOperator", "EllipticCoefficient", "LinearIntegral"])
def test_forward_operator_methods(cls, methods):
    # the solvers reach a forward map only through its linearization and the
    # base class's norm bound (a linear map's two kernels serve the data
    # builders and the oracles); a second route has to change this on purpose
    public = {name for name, _ in inspect.getmembers(cls, inspect.isfunction)
              if not name.startswith("_")}
    assert public == methods


def test_package_root_reexports_nothing():
    # each public name has one import path, the module whose ``__all__``
    # lists it; the root holds the version and, once imported, the modules
    public = {name for name in vars(mirrorsolve) if not name.startswith("_")}
    assert public <= {path.stem for path in MODULES}
    assert hasattr(mirrorsolve, "__version__")
    code = ("import sys, mirrorsolve; "
            "print(sorted(m for m in sys.modules if m.startswith('mirrorsolve.')))")
    loaded = subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent,
                            capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == "[]"


def test_public_name_count():
    names = sum(len(importlib.import_module(f"mirrorsolve.{path.stem}").__all__)
                for path in MODULES)
    assert names == PUBLIC_NAMES


def test_settable_value_count():
    keyword = 0
    for path in MODULES:
        module = importlib.import_module(f"mirrorsolve.{path.stem}")
        for name in module.__all__:
            keyword += len(_keyword_parameters(getattr(module, name)))
    flags = sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument" and node.args[0].value.startswith("--")
                for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())))
    assert (keyword, len(config._KEYS), flags) == (KEYWORD_PARAMETERS, CONFIG_KEYS, CLI_FLAGS)


#: ceiling on the code lines of the package's modules, ``__init__.py``
#: included: lines that hold a token other than a comment, a newline or an
#: indent, outside string-expression statements (docstrings); growth has to
#: raise it on purpose
CODE_LINES = 1357

_LAYOUT_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                  tokenize.DEDENT, tokenize.ENDMARKER}


def _code_lines(source):
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT_TOKENS:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_code_line_ceiling():
    count = sum(_code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py")))
    assert count <= CODE_LINES, f"{count} code lines, ceiling {CODE_LINES}"
