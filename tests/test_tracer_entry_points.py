"""The benchmark's tracer finds each layer through names in gripwatch.

``perfbench/tracing.py`` wraps module attributes listed in ``ENTRY_POINTS``
and skips a name that is gone, so a refactor that drops one would only show
up as a missing per-layer metric in a traced benchmark run. This test reads
the list without installing any wrapper and checks every name here instead.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def entry_points():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ENTRY_POINTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("ENTRY_POINTS not found in perfbench/tracing.py")


def resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for name in path.split("."):
        owner = getattr(owner, name, None)
    return owner is not None


def test_every_traced_span_has_a_name_that_resolves():
    by_key = {}
    for module_name, path, key in entry_points():
        by_key.setdefault(key, []).append(resolves(module_name, path))
    assert by_key
    assert [key for key, found in by_key.items() if not any(found)] == []


def test_detect_scores_through_a_predict_name():
    detect = importlib.import_module("gripwatch.detect")
    assert [name for name in dir(detect) if name.startswith("predict_")]
