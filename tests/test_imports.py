"""Modules of the package use only each other's public names, and use
every name they import; so do the tests and the demos."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fiskit

SRC = Path(fiskit.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}
TESTS = Path(__file__).parent
SCRIPTS = sorted([*TESTS.glob("*.py"), *(TESTS.parent / "demos").glob("*.py")])


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dotted(node: ast.expr) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def private_uses(source: str) -> list[str]:
    """Private names of other fiskit modules that ``source`` imports or
    reads as module attributes."""
    tree = ast.parse(source)
    modules: set[str] = set()  # names bound to fiskit modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fiskit":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "fiskit":
                continue
            package = node.module in (None, "fiskit")
            for alias in node.names:
                if package and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and _dotted(node.value) in modules:
            found.append(f"line {node.lineno}: uses {_dotted(node)}")
    return found


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_private_names_across_modules(name):
    assert private_uses((SRC / f"{name}.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "from .fis import FIS, _Engine\n",
    "from fiskit.fis import _Engine\n",
    "from . import grids\nx = grids._hidden\n",
    "import fiskit.grids as g\nx = g._hidden\n",
    "import fiskit.grids\nx = fiskit.grids._hidden\n",
])
def test_guard_catches_private_uses(source):
    assert len(private_uses(source)) == 1


def test_guard_allows_public_and_own_names():
    source = ("from __future__ import annotations\nfrom . import grids\n"
              "from .fis import FIS\nx = grids.grid\ny = grids.__name__\n"
              "class A:\n    def f(self):\n        return self._x\n")
    assert private_uses(source) == []


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: imports {name}" for name, line in imported.items()
            if name not in used]


# the package's own imports are its exports
@pytest.mark.parametrize("name", sorted(MODULES - {"__init__"}))
def test_every_imported_name_is_used(name):
    assert unused_imports((SRC / f"{name}.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_tests_and_demos_use_every_imported_name(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "import itertools\n",
    "from .errors import FormatError, UnknownLetter\nraise UnknownLetter\n",
    "from . import grids\n",
    "import fiskit.grids as g\n",
])
def test_unused_import_guard_catches_unused_names(source):
    assert len(unused_imports(source)) == 1


def test_unused_import_guard_allows_used_names():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from typing import Sequence\nfrom . import grids\n"
              "def f(x: Sequence) -> None:\n    return grids.grid(os.path.sep)\n")
    assert unused_imports(source) == []


# the public API in full: adding or removing a name changes this list,
# and README with it
PUBLIC = """
    BORDER CheckResult FIS FinitenessReport FiskitError
    FormatError Grid IndexOutOfRange
    InvalidSolution LocalLanguage MARKER
    NotReductionScenario PcpInstance
    Scenario StructuralReport Tile TileSystem Transition
    UnknownLetter UnknownTransition analysis
    bounded_accessibility bounded_emptiness check_scenario check_solution
    cli compile_pcp compile_pcp_probe enumerate_language errors
    finiteness_evidence first_accepted fis fis_to_tiles
    format_finiteness_report format_fis format_grid format_pcp
    format_structural_report format_tiles grid grids h_compose
    iter_accepted main pad_transition parse_fis parse_grid
    parse_pcp parse_tiles pcp probe_transition probe_witness pumps_at_width quote
    recognize recognize_with_transition render_scenario solve_pcp
    structural_check tiles tiles_to_fis
    ts_language ts_recognize v_compose witness_from_solution
""".split()


def test_public_api_is_pinned():
    assert sorted(fiskit.__all__) == sorted(PUBLIC)


def test_every_exception_type_is_raised():
    # a value that cannot be built is a ValueError; each type errors.py
    # defines besides the base class is raised somewhere, or it is dead
    defined = [node.name for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef) and node.name != "FiskitError"]
    raised = {_dotted(call.func) for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and isinstance(call := node.exc, ast.Call)}
    assert defined and [name for name in defined if name not in raised] == []


def test_readme_library_quick_start_runs(monkeypatch, capsys):
    # README's "Library quick start" block, run as written from the
    # root of a checkout: it must not drift from the API
    root = TESTS.parent
    text = (root / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["sol"] == (1, 2)
    assert [scope[k] for k in ("nw", "ne", "sw", "se")] == ["#"] * 4
    assert "overall: pass" in capsys.readouterr().out
