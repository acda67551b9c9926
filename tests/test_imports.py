"""Every name a dpone or test module imports, and every private name a
dpone module defines, is read; no test module imports another; and the
modules of the cheap commands import numpy only inside functions.

A name counts as used only where it is loaded, so an import whose name
is only assigned (say, a dataclass field of the same name) is reported.
Function-local imports count like module-level ones.  A private
module-level name or private method (one underscore, not a dunder) must
be read in the module that defines it, by name or as an attribute, so a
helper left behind by a rewrite is reported.  A public module-level name
of a dpone module must be read by some dpone module, read by the bench
harness in perfbench/, or exported in `dpone.__all__`; a name only the
tests read belongs in tests/oracles.py.  Test modules share inputs
and oracles only through `conftest.py`, `families.py` and `oracles.py`.
`lattice`, `curves`, `weyl`, `lemmas` and `cli` serve list-curves,
list-roots, classify-element and verify-lemma A2A22, which compute on no
array, so a numpy import at their module level is named here, and
`lattice` imports numpy nowhere, not even inside a function; the probe
in test_cli.py can only say that numpy, the group layer `groups` or
argparse was loaded.  `groups`, `stars` and `criteria` import numpy at
module level: only commands that compute on arrays load them.  Every
dpone value class derives from `lattice.Record`: no dpone module imports
dataclasses, and no other class defines its own equality, hash or
attribute writes.
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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
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


def module_level_names(tree: ast.Module) -> dict[str, int]:
    """name -> line of each function, class and assigned name at module level."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return defined


def names_read(tree: ast.AST) -> set[str]:
    """Every name loaded, by name or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = module_level_names(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defined[item.name] = item.lineno
    read = names_read(tree)
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


def names_from(package: str, sources: list[str]) -> set[str]:
    """Every name the sources read: imported from the package, or loaded
    by name or as an attribute (``criteria.replay_minimality``)."""
    read = set()
    for tree in map(ast.parse, sources):
        read |= names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(package):
                read |= {alias.name for alias in node.names}
    return read


def unread_public_names(modules: dict[str, str], readers: list[str], exported) -> list[str]:
    """`module.name (line n)` for each public module-level name of the
    modules that none of them reads, no reader reads and `exported` omits."""
    read = names_from("dpone", list(modules.values()) + readers) | set(exported)
    return sorted(
        f"{module}.{name} (line {line})"
        for module, source in modules.items()
        for name, line in module_level_names(ast.parse(source)).items()
        if not name.startswith("_") and name not in read
    )


def test_every_public_name_is_read():
    # a public name only the tests read is test code: it lives in oracles.py
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    readers = [p.read_text(encoding="utf-8") for p in sorted(bench.glob("*.py"))]
    assert unread_public_names(modules, readers, dpone.__all__) == []


def test_unread_public_name_is_reported():
    modules = {
        "shapes": (
            "LINE = 1\n"
            "_K, SPAN = 2, 3\n"
            "def bertini(d):\n"
            "    return _K - d\n"
            "def used():\n"
            "    return SPAN\n"
            "class Exported:\n"
            "    def method(self):\n"
            "        pass\n"
            '"""LINE and bertini are named only in this docstring."""\n'
        ),
        "reader": "from .shapes import used\nprint(used())\ndef by_bench():\n    pass\n",
    }
    readers = ["import dpone.reader as r\nr.by_bench()\nfrom dpone.shapes import SPAN\n"]
    assert unread_public_names(modules, readers, ["Exported"]) == [
        "shapes.LINE (line 1)", "shapes.bertini (line 3)",
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


def imports_of(node: ast.AST, package: str) -> list[str]:
    """`module (line n)` for each module of the package that this one import
    statement names; an empty list for any other node."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        names = []
    return [f"{n} (line {node.lineno})" for n in names if n.split(".")[0] == package]


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
            found.extend(imports_of(node, "numpy"))
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, []))

    visit(ast.parse(source).body)
    return found


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_cheap_command_modules_import_no_numpy_at_load(name):
    source = (Path(dpone.__file__).parent / name).read_text(encoding="utf-8")
    assert module_level_numpy_imports(source) == []


def numpy_imports(source: str) -> list[str]:
    """`numpy (line n)` for each import of numpy anywhere in the source."""
    return [found for node in ast.walk(ast.parse(source)) for found in imports_of(node, "numpy")]


def test_lattice_imports_no_numpy_anywhere():
    source = (Path(dpone.__file__).parent / "lattice.py").read_text(encoding="utf-8")
    assert numpy_imports(source) == []


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
    assert sorted(numpy_imports(source)) == [
        "numpy (line 12)", "numpy (line 14)", "numpy (line 2)", "numpy (line 6)",
        "numpy.linalg (line 8)", "numpy.typing (line 4)",
    ]


RECORD_METHODS = {"__eq__", "__hash__", "__setattr__", "__delattr__"}


def record_idiom_breaks(source: str) -> list[str]:
    """Each import of dataclasses, and each method of `RECORD_METHODS` that
    a class other than `Record` defines, by def or by assignment."""
    found = []
    for node in ast.walk(ast.parse(source)):
        found += imports_of(node, "dataclasses")
        if isinstance(node, ast.ClassDef) and node.name != "Record":
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defined = [item.name]
                elif isinstance(item, ast.Assign):
                    defined = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    defined = []
                found += [
                    f"{node.name}.{m} (line {item.lineno})" for m in defined if m in RECORD_METHODS
                ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_value_classes_share_the_record_base(path):
    assert record_idiom_breaks(path.read_text(encoding="utf-8")) == []


def test_record_idiom_break_is_reported():
    source = (
        "from dataclasses import dataclass\n"
        "import dataclasses as dc\n"
        "class Record:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "class Value(Record):\n"
        "    def __hash__(self):\n"
        "        return 0\n"
        "    __setattr__ = __delattr__ = None\n"
        "    def __lt__(self, other):\n"
        "        return True\n"
    )
    assert record_idiom_breaks(source) == [
        "dataclasses (line 1)", "dataclasses (line 2)", "Value.__hash__ (line 7)",
        "Value.__setattr__ (line 9)", "Value.__delattr__ (line 9)",
    ]
