"""Only `cli.main` writes stdout.

Each subcommand returns its document and text lines, and main prints
one of them; so no other function in cli.py may call print without
file=sys.stderr, or touch sys.stdout.
"""

import ast
from pathlib import Path

import dpone

CLI = Path(dpone.__file__).parent / "cli.py"


def _to_stderr(call: ast.Call) -> bool:
    return any(
        kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in call.keywords
    )


def stdout_writers(source: str) -> list[str]:
    """`name (line n)` for each stdout write outside main, by top-level name."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        if owner == "main":
            continue
        for node in ast.walk(top):
            prints = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and not _to_stderr(node)
            )
            if prints or ast.unparse(node) == "sys.stdout":
                found.append(f"{owner} (line {node.lineno})")
    return found


def test_only_main_writes_stdout():
    assert stdout_writers(CLI.read_text(encoding="utf-8")) == []


def test_stdout_writer_is_reported():
    source = (
        "import sys\n"
        "def cmd_a(args):\n"
        "    print('x', file=sys.stderr)\n"
        "    print('y')\n"
        "class C:\n"
        "    def f(self):\n"
        "        sys.stdout.write('z')\n"
        "def main():\n"
        "    print('ok')\n"
        "    sys.stdout.flush()\n"
        "print('at import')\n"
    )
    assert stdout_writers(source) == [
        "cmd_a (line 4)", "C (line 7)", "<module> (line 11)",
    ]
