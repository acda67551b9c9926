"""Only the text layer reads an isometry's matrix.

A group computes with curve permutations, and the 9x9 matrix is the
element's text and equality form.  So `.matrix` may be read only by
`LatticeIsometry`'s own methods, by the text functions that print an
element or read its cycles, and by `CurveTable.permutation_of`, which
turns a matrix into a permutation.
"""

import ast
from pathlib import Path

import pytest

import dpone

MODULES = sorted(Path(dpone.__file__).parent.glob("*.py"))

# module -> the top-level functions, classes and Class.method names that may read it
ALLOWED = {
    "lattice.py": {"LatticeIsometry", "permutation_of_isometry", "isometry_to_text"},
    "cli.py": {"element_text"},
    "curves.py": {"CurveTable.permutation_of"},
}


def matrix_reads(source: str, allowed=frozenset()) -> list[str]:
    """`owner (line n)` for each `.matrix` read whose owner is not allowed.

    The owner is a top-level function, or Class.method for code in a
    method, or the class for the rest of a class body; allowing a class
    allows all of its methods.
    """
    found = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        parts = top.body if isinstance(top, ast.ClassDef) else [top]
        for part in parts:
            is_method = isinstance(top, ast.ClassDef) and hasattr(part, "name")
            owner = f"{name}.{part.name}" if is_method else name
            if name in allowed or owner in allowed:
                continue
            found += [
                f"{owner} (line {node.lineno})"
                for node in ast.walk(part)
                if isinstance(node, ast.Attribute)
                and node.attr == "matrix"
                and isinstance(node.ctx, ast.Load)
            ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_text_layer_reads_matrices(path):
    source = path.read_text(encoding="utf-8")
    assert matrix_reads(source, ALLOWED.get(path.name, set())) == []


def test_matrix_read_is_reported():
    source = (
        "class LatticeIsometry:\n"
        "    def apply(self, v):\n"
        "        return self.matrix\n"
        "class GroupSpec:\n"
        "    def _fixed_rank(self):\n"
        "        return [m.matrix for m in self.generators]\n"
        "    def label(self):\n"
        "        self.matrix = None\n"
        "def isometry_to_text(m):\n"
        "    return str(m.matrix)\n"
        "def order(m):\n"
        "    return len(m.matrix[0])\n"
        "ROWS = IDENTITY.matrix\n"
    )
    allowed = {"LatticeIsometry", "isometry_to_text"}
    assert matrix_reads(source, allowed) == [
        "GroupSpec._fixed_rank (line 6)", "order (line 12)", "<module> (line 13)",
    ]
