"""The engine is standard-library only: every absolute import in
``src/vessiot`` names a module of the Python standard library.  It holds no
``assert`` statement, since ``python -O`` strips them: invariants raise.

Relative imports (``from . import``, ``from .errors import``) stay inside the
package and are not checked.  The benchmark's tracer wraps engine functions and
methods by name; every name it wraps must exist.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vessiot"
MODULES = sorted(SRC.glob("*.py"))


def top_level_imports(source: str) -> set:
    """Top-level module names of the absolute imports in Python source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def assert_lines(source: str) -> list:
    """Line numbers of the assert statements in Python source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_modules_found():
    assert SRC / "symexpr.py" in MODULES


def test_checker_sees_absolute_imports_only():
    source = "import os.path\nfrom sympy import cancel\nfrom . import cli\nfrom .errors import X\n"
    assert top_level_imports(source) == {"os", "sympy"}


def test_checker_sees_asserts():
    assert assert_lines("x = 1\nassert x, 'why'\ndef f():\n    assert False\n") == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_stdlib_only(path):
    imported = top_level_imports(path.read_text(encoding="utf-8"))
    assert imported - sys.stdlib_module_names == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS and tracer.METHODS
    for _, module, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"
    for _, module, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert attr in cls.__dict__, f"{module}.{cls_name}.{attr}"


def test_all_names_resolve():
    vessiot = importlib.import_module("vessiot")
    missing = [name for name in vessiot.__all__ if not hasattr(vessiot, name)]
    assert missing == []
