"""No library module divides with '/' or '/='.

Scalars are ints when integral, so a / b on two of them would silently give
a float; exact quotients are written Fraction(a, b), and integer ones //.
Read off each module's syntax tree, so a '/' in a string or a comment does
not count.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "lieobstruct"


def true_divisions(source: str) -> list:
    """Line numbers of every '/' and '/=' in the source."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]


def test_library_has_no_true_division():
    assert true_divisions("x = a / b\ny = a // b\n") == [1]
    assert true_divisions("x = 1\nx /= 2\n") == [2]
    assert true_divisions("s = 'a / b'  # c / d\n") == []
    modules = sorted(LIBRARY.glob("*.py"))
    assert len(modules) >= 6
    found = {m.name: true_divisions(m.read_text()) for m in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
