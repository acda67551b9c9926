"""Every name a dpone module imports, and every private name it defines, is
read; no test module imports another; and the modules of the cheap
commands import numpy only inside functions.

A name counts as used only where it is loaded, so an import whose name
is only assigned (say, a dataclass field of the same name) is reported.
Function-local imports count like module-level ones.  A private
module-level name or private method (one underscore, not a dunder) must
be read in the module that defines it, by name or as an attribute, so a
helper left behind by a rewrite is reported.  Test modules share inputs
and oracles only through `conftest.py`, `families.py` and `oracles.py`.
`lattice`, `curves`, `weyl`, `lemmas` and `cli` serve list-curves,
list-roots, classify-element and verify-lemma A2A22, which compute on no
array, so a numpy import at their module level is named here; the probe
in test_cli.py can only say that numpy, the group layer `groups` or
argparse was loaded.  `groups`, `stars` and `criteria` import numpy at
module level: only commands that compute on arrays load them.
"""

import ast
from pathlib import Path

import pytest

import dpone

MODULES = sorted(Path(dpone.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = (
        "import os.path\n"
        "from json import dumps, loads as load_json\n"
        "from x import divisor\n"
        '"""dumps and os are named only in this docstring."""\n'
        "class C:\n"
        "    divisor: int\n"
        "def f(x: str) -> None:\n"
        "    from y import unused_here, used_here\n"
        "    return load_json(used_here(x))\n"
    )
    assert unused_imports(source) == [
        "divisor (line 3)", "dumps (line 2)", "os (line 1)", "unused_here (line 8)",
    ]


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defined[item.name] = item.lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return sorted(
        f"{name} (line {line})"
        for name, line in defined.items()
        if name.startswith("_") and not name.endswith("__") and name not in read
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_unread_private_name_is_reported():
    source = (
        "_WEIGHTS = 3\n"
        "_USED, _PAIRED = 1, 2\n"
        "__all__ = []\n"
        "def _helper():\n"
        "    _local = 1\n"
        "    return _USED\n"
        "class _Tag:\n"
        "    def __init__(self):\n"
        "        self._cache = None\n"
        "    def _used(self):\n"
        "        return self._cache\n"
        "    def _unused(self):\n"
        "        return _PAIRED\n"
        "def run():\n"
        "    return _Tag()._used()\n"
        '"""_WEIGHTS and _helper are named only in this docstring."""\n'
    )
    assert unread_private_names(source) == [
        "_WEIGHTS (line 1)", "_helper (line 4)", "_unused (line 12)",
    ]


def imported_test_modules(source: str) -> list[str]:
    """The test_* modules a source imports, by any import form."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    return sorted(n for n in names if n.split(".")[-1].startswith("test_"))


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_test_module_imports_another(path):
    assert imported_test_modules(path.read_text(encoding="utf-8")) == []


def test_imported_test_module_is_reported():
    source = (
        "import test_lattice\n"
        "from test_rule_sweep import family\n"
        "from families import groups\n"
        "def f():\n"
        "    import tests.test_cli as cli\n"
        "    from oracles import slow_order\n"
    )
    assert imported_test_modules(source) == ["test_lattice", "test_rule_sweep", "tests.test_cli"]


NUMPY_FREE = ("lattice.py", "curves.py", "weyl.py", "lemmas.py", "cli.py")


def module_level_numpy_imports(source: str) -> list[str]:
    """`numpy (line n)` for each import of numpy run when the module loads.

    Statements inside functions and classes run later, and an
    `if TYPE_CHECKING:` block never runs; every other block at module
    level (if, try, with) runs at import.
    """
    found = []

    def visit(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            found.extend(
                f"{name} (line {node.lineno})"
                for name in names if name.split(".")[0] == "numpy"
            )
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, []))

    visit(ast.parse(source).body)
    return found


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_cheap_command_modules_import_no_numpy_at_load(name):
    source = (Path(dpone.__file__).parent / name).read_text(encoding="utf-8")
    assert module_level_numpy_imports(source) == []


def test_module_level_numpy_import_is_reported():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n"
        "    import numpy.typing\n"
        "else:\n"
        "    from numpy import arange\n"
        "try:\n"
        "    import numpy.linalg as la\n"
        "except ImportError:\n"
        "    pass\n"
        "def f():\n"
        "    import numpy\n"
        "class C:\n"
        "    import numpy\n"
        "import numpyish\n"
    )
    assert module_level_numpy_imports(source) == [
        "numpy (line 2)", "numpy (line 6)", "numpy.linalg (line 8)",
    ]
