"""The benchmark tracer wraps library names by string; keep them resolvable.

perfbench/tracer.py is read as text, never imported or changed: its TARGETS
table names the functions and methods it wraps in each lieobstruct module.
The tracer also counts an EchelonForm.insert call as useful when the first
item of the returned pair is truthy; tests/test_ratlin.py checks that
contract in test_insert_reports_rank_changes.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> dict:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACER}")


TARGETS = tracer_targets()


def test_every_traced_name_resolves():
    missing = []
    for module, quals in TARGETS.items():
        for qual in quals:
            obj = importlib.import_module(f"lieobstruct.{module}")
            for part in qual.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{qual}")
    assert sum(len(q) for q in TARGETS.values()) > 0
    assert missing == []
