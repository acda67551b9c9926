"""Every name a dpone module imports is used in that module.

`__init__` is exempt: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

import dpone

MODULES = sorted(
    p for p in Path(dpone.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
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
        '"""dumps and os are named only in this docstring."""\n'
        "def f(x: str) -> None:\n"
        "    return load_json(x)\n"
    )
    assert unused_imports(source) == ["dumps (line 2)", "os (line 1)"]
