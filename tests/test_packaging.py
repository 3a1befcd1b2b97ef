"""The engine is standard-library only: every absolute import in
``src/vessiot`` names a module of the Python standard library.  It holds no
``assert`` statement, since ``python -O`` strips them: invariants raise.  No
module imports ``dataclasses``, which pulls in ``inspect`` and would be paid by
every CLI call.  No module reads the environment: every setting is an argument.
No module imports a name it never uses.

Relative imports (``from . import``, ``from .errors import``) stay inside the
package and are not checked.  The benchmark's tracer wraps engine functions and
methods by name; every name it wraps must exist.

The package imports lazily: a fresh interpreter shows which modules one CLI
call loads, and that only the ``vessiot`` entry point, ``cli.run``, freezes
the garbage collector.
"""

import ast
import importlib.util
import os
import subprocess
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


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list:
    """Line numbers where Python source names os.environ or getenv, as an
    attribute, a bare name or an imported name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ENVIRONMENT_NAMES:
            lines.append(node.lineno)
    return sorted(lines)


def unused_imports(source: str) -> list:
    """Names bound by the imports of Python source that the source never reads.
    A name read only in an annotation, a string one included, counts as used;
    ``from __future__`` imports bind nothing to read."""
    tree = ast.parse(source)
    bound = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a type
                    continue
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(bound - used)


def test_modules_found():
    assert SRC / "symexpr.py" in MODULES


def test_checker_sees_absolute_imports_only():
    source = "import os.path\nfrom sympy import cancel\nfrom . import cli\nfrom .errors import X\n"
    assert top_level_imports(source) == {"os", "sympy"}


def test_checker_sees_asserts():
    assert assert_lines("x = 1\nassert x, 'why'\ndef f():\n    assert False\n") == [2, 4]


def test_checker_sees_environment_reads():
    source = (
        "import os\nx = os.environ['A']\ny = os.getenv('B')\n"
        "from os import environ\nz = getenv\nenvironment = 1\n"
    )
    assert environment_reads(source) == [2, 3, 4, 5]


def test_checker_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\nimport json\n"
        "from typing import Dict, List, Optional, Tuple\n"
        "from . import cli\nfrom .errors import X, Y\n"
        "def f(a: Dict[str, 'Tuple[int, X]']) -> List[int]:\n"
        "    return os.path.join(json.dumps(a))\n"
        "y: 'cli.Z' = 1\n"
        "z: Dict[str, 'not a type'] = {}\n"
    )
    assert unused_imports(source) == ["Optional", "Y", "regex"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_stdlib_only(path):
    imported = top_level_imports(path.read_text(encoding="utf-8"))
    assert imported - sys.stdlib_module_names == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert "dataclasses" not in top_level_imports(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


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


# ----------------------------------------------------------------------
# what one process loads
# ----------------------------------------------------------------------

ENGINE = {"vessiot.curvature", "vessiot.forms", "vessiot.jetcalc", "vessiot.lieops",
          "vessiot.linalg", "vessiot.reports", "vessiot.structure", "vessiot.symexpr"}


def fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports vessiot from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return out.stdout


def loaded_by(code: str) -> set:
    """Modules that ``code`` adds to those a bare interpreter starts with."""
    listing = "\nimport sys\nprint(' '.join(sys.modules))"
    before = fresh(listing).split()
    return set(fresh(code + listing).splitlines()[-1].split()) - set(before)


def test_cli_import_is_light():
    loaded = loaded_by("import vessiot.cli")
    assert loaded & {"dataclasses", "inspect", "json", "fractions"} == set()
    assert {m for m in loaded if m.startswith("vessiot")} == {
        "vessiot", "vessiot.cli", "vessiot.errors"}


@pytest.mark.parametrize("argv", [["frobnicate"], ["compute"], ["--help"]], ids=" ".join)
def test_usage_error_loads_no_engine(argv):
    loaded = loaded_by(f"from vessiot.cli import main\nmain({argv!r})")
    assert loaded & (ENGINE | {"json", "fractions"}) == set()


def test_dims_loads_only_jetcalc():
    loaded = loaded_by("from vessiot.cli import main\nmain(['dims', '--n', '2'])")
    assert "vessiot.jetcalc" in loaded
    assert loaded & {"vessiot.lieops", "vessiot.structure", "vessiot.curvature",
                     "vessiot.forms", "vessiot.linalg"} == set()


def test_forms_loads_only_the_kernel():
    # the sparse-sum helpers forms shares with jetcalc live in symexpr
    loaded = loaded_by("import vessiot.forms")
    assert {m for m in loaded if m.startswith("vessiot")} == {
        "vessiot", "vessiot.forms", "vessiot.symexpr", "vessiot.errors"}


def test_submodules_resolve_as_attributes():
    out = fresh(
        "import vessiot.cli\n"
        "print(vessiot.lieops.__name__, vessiot.jetcalc.__name__,"
        " vessiot.structure.solve_square.__module__)\n"
        "print(hasattr(vessiot, 'no_such_name'))\n"
    )
    assert out.split() == ["vessiot.lieops", "vessiot.jetcalc", "vessiot.linalg", "False"]


def test_star_import_and_dir_cover_all():
    out = fresh(
        "import vessiot\n"
        "listed = dir(vessiot)\n"
        "print(sorted(set(vessiot.__all__) - set(listed)))\n"
        "from vessiot import *\n"
        "print(sorted(name for name in vessiot.__all__ if name not in globals()))\n"
    )
    assert out.split() == ["[]", "[]"]


def section_path(name: str) -> str:
    return str(ROOT / "sections" / f"{name}.section")


# (argv, engine modules the call loads, engine modules it leaves unloaded)
COMMAND_LOADS = [
    (["compute", "--section", section_path("product_flat")],
     {"vessiot.structure", "vessiot.linalg", "vessiot.forms"},
     {"vessiot.jetcalc", "vessiot.curvature"}),
    (["compute", "--section", section_path("metric_half_plane")],
     {"vessiot.structure", "vessiot.curvature"}, {"vessiot.jetcalc"}),
    (["curvature", "--section", section_path("metric_half_plane")],
     {"vessiot.curvature"}, {"vessiot.jetcalc", "vessiot.structure", "vessiot.linalg"}),
    (["check-cc", "--section", section_path("metric_euclidean"), "--cc",
      "d11O22,+d22O11,-2d12O12"],
     {"vessiot.jetcalc", "vessiot.lieops"},
     {"vessiot.structure", "vessiot.curvature", "vessiot.forms", "vessiot.linalg"}),
    # the gate compares structure constants, never the Lie equations
    (["equivalence", "--left", section_path("product_flat"), "--right",
      section_path("product_projective")],
     {"vessiot.structure"}, {"vessiot.jetcalc", "vessiot.curvature"}),
]


@pytest.mark.parametrize("argv, loads, skips", COMMAND_LOADS,
                         ids=[f"{c[0][0]} {Path(c[0][2]).stem}" for c in COMMAND_LOADS])
def test_command_loads_only_what_it_runs(argv, loads, skips):
    loaded = loaded_by(f"from vessiot.cli import main\nmain({argv!r})")
    assert loads <= loaded
    assert loaded & skips == set()


def test_jetcalc_loads_with_the_lie_equations():
    load = (
        "from vessiot.lieops import load_section, same_equations\n"
        f"left, _ = load_section({section_path('product_flat')!r})\n"
        f"right, _ = load_section({section_path('product_projective')!r})\n"
    )
    assert "vessiot.jetcalc" not in loaded_by(load)
    assert "vessiot.jetcalc" in loaded_by(load + "same_equations(left, right)")


# ----------------------------------------------------------------------
# the exit path: run() is main() plus a collector frozen before exit
# ----------------------------------------------------------------------


def test_only_run_freezes_the_collector():
    argv = ["compute", "--section", section_path("product_flat")]
    out = fresh(
        "import contextlib, gc, io\nfrom vessiot.cli import main, run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "    frozen_by_main = gc.get_freeze_count()\n"
        "    try:\n"
        f"        run({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        exit_code = exc.code\n"
        "print(code, frozen_by_main, exit_code, gc.get_freeze_count() > 0)\n"
    )
    assert out.split() == ["0", "0", "0", "True"]


# ----------------------------------------------------------------------
# python -O: no check depends on assert
# ----------------------------------------------------------------------


def run_python(*args: str, optimize: bool) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)


def test_check_cc_same_under_optimize():
    argv = ["-m", "vessiot.cli", "check-cc", "--section", "sections/metric_half_plane.section",
            "--cc", "d11O22,+d22O11,-2d12O12"]
    plain, optimized = (run_python(*argv, optimize=flag) for flag in (False, True))
    assert plain.stdout and plain.stdout == optimized.stdout
    assert plain.returncode == optimized.returncode == 1  # a nonzero residual


def test_singular_row_refused_under_optimize():
    code = (
        "from vessiot.errors import SingularPoint\n"
        "from vessiot.jetcalc import JetVariable, LinearJetEquation, prolong, symbol_dimension\n"
        "from vessiot.symexpr import Context, parse_in\n"
        "ctx = Context(2)\n"
        "eq = LinearJetEquation({JetVariable(1, (1, 0)): ctx.one(),"
        " JetVariable(1, (0, 0)): parse_in('1/(x1 - 2)', ctx)})\n"
        "half = LinearJetEquation({JetVariable(1, (1, 0)): ctx.one(),"
        " JetVariable(1, (0, 0)): parse_in('1/(2*x1 - 1)', ctx)})\n"
        "cases = [(eq, None), (half, ('1/2',))]  # x1 = 2 by default, then x1 = 1/2\n"
        "for e, point in cases:\n"
        "    second = [d for d in prolong([e], 1) if d.order == 2]\n"
        "    try:\n"
        "        print(symbol_dimension(second, 2, sample_point=point))\n"
        "    except SingularPoint:\n"
        "        print('SingularPoint')\n"
    )
    assert run_python("-c", code, optimize=True).stdout == "SingularPoint\nSingularPoint\n"


def test_coefficient_budget_refused_under_optimize(tmp_path):
    # 10^1000*10 breaks the budget on the kernel-polynomial route, before any /
    path = tmp_path / "big.section"
    path.write_text("kind = METRIC_2D\nw11 = 10^1000*10 + x1\nw22 = 1\nw12 = 0\n")
    argv = ["-m", "vessiot.cli", "compute", "--section", str(path)]
    plain, optimized = (run_python(*argv, optimize=flag) for flag in (False, True))
    assert plain.returncode == optimized.returncode == 2
    assert "coefficient beyond 10^1000" in plain.stderr
    assert plain.stderr == optimized.stderr and plain.stdout == optimized.stdout == ""


def test_violated_jacobi_exit_three_under_optimize():
    # the product's curls forced to the constants 1 and 2: the pairs differ,
    # both are reduced, and the nonzero residual stops the run with no assert
    code = (
        "import sys\n"
        "from vessiot import cli, structure\n"
        "from vessiot.symexpr import _pconst\n"
        "values = iter([1, 2])\n"
        "structure._curl = lambda a, i, b, j, w, cleared: (_pconst(next(values)), _pconst(1))\n"
        "sys.exit(cli.main(['compute', '--section', 'sections/product_flat.section']))\n"
    )
    plain, optimized = (run_python("-c", code, optimize=flag) for flag in (False, True))
    assert plain.returncode == optimized.returncode == 3
    assert plain.stderr.startswith(
        "vessiot: internal error: RuntimeError: Jacobi identity violated"
    )
    assert plain.stderr == optimized.stderr and plain.stdout == optimized.stdout == ""
