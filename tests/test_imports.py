"""Every name a dpone module imports is read in that module.

A name counts as used only where it is loaded, so an import whose name
is only assigned (say, a dataclass field of the same name) is reported.
Function-local imports count like module-level ones.
"""

import ast
from pathlib import Path

import pytest

import dpone

MODULES = sorted(Path(dpone.__file__).parent.glob("*.py"))


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
