"""Every public library name has a caller.

A name in a module's __all__ must be named by the CLI, a script under
scripts/, the paper-criterion tests in tests/test_acceptance.py, the
benchmark tracer's TARGETS, or library code outside its own definition.
A name is named in code, not in a docstring or comment: read off the
syntax tree, as a variable, an attribute or an imported name.
"""

import ast
from pathlib import Path

from test_tracer_contract import TARGETS

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "lieobstruct"
CALLERS = [
    LIBRARY / "cli.py",
    *sorted((ROOT / "scripts").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def references(tree) -> dict:
    """{name of a module-level function or class, or None for every other
    statement: the identifiers its code names}."""
    out: dict = {}
    for stmt in tree.body:
        key = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        names = out.setdefault(key, set())
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return out


def exported(tree) -> tuple:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    return ()


def test_every_public_name_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(LIBRARY.glob("*.py"))}
    library = {(m, k): names for m, t in trees.items() for k, names in references(t).items()}
    callers = set().union(*(
        names for p in CALLERS for names in references(ast.parse(p.read_text())).values()
    ))
    public = {m: exported(t) for m, t in trees.items() if exported(t)}
    assert {"cdga", "ce", "cli", "fplie", "freelie"} <= set(public)
    unused = []
    for module, names in public.items():
        traced = {q.split(".")[0] for q in TARGETS.get(module, ())}
        for name in names:
            if name in callers or name in traced:
                continue
            if not any(name in used for key, used in library.items() if key != (module, name)):
                unused.append(f"{module}.{name}")
    assert unused == []
