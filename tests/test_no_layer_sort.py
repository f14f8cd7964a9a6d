"""freelie._layer builds each layer in its final order and sorts nothing.

A layer is emitted already ordered (see _layer's docstring), so a call to
sort or sorted inside it would be a return of the sort it replaced.  Read
off the module's syntax tree, so a 'sort' in a string or a comment does not
count.
"""

import ast
from pathlib import Path

FREELIE = Path(__file__).resolve().parents[1] / "src" / "lieobstruct" / "freelie.py"


def sort_calls(source: str, function: str) -> list:
    """Line numbers of every call to sort or sorted, as a name or as an
    attribute, inside the module-level function of that name."""
    (fn,) = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    return [
        node.lineno
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in ("sort", "sorted")
             or getattr(node.func, "attr", None) in ("sort", "sorted"))
    ]


def test_layer_build_calls_no_sort():
    probe = (
        "def f(xs):\n"
        "    xs.sort()\n"
        "    ys = sorted(xs)  # sorted\n"
        "    return 'sort', list.sort(ys)\n"
        "def g(xs):\n"
        "    return sorted(xs)\n"
    )
    assert sort_calls(probe, "f") == [2, 3, 4]
    assert sort_calls(probe, "g") == [6]
    assert sort_calls(FREELIE.read_text(), "_layer") == []
