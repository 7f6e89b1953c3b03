"""The benchmark finds gripwatch through names in its source.

``perfbench/tracing.py`` wraps module attributes listed in ``ENTRY_POINTS``
and skips a name that is gone, so a refactor that drops one would only show
up as a missing per-layer metric in a traced benchmark run. The benchmark
modules also import gripwatch names directly, and a dropped one would only
show up as a failed benchmark run. These tests read both from the source,
without importing a benchmark module or installing any wrapper, and check
every name here instead.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def gripwatch_imports():
    """(file, module, name) for each name a benchmark module imports from
    gripwatch, with name None for a plain ``import gripwatch.x``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gripwatch":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "gripwatch":
                        yield path.name, alias.name, None


def imports(module_name, name):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    if name is None or hasattr(owner, name):
        return True
    try:  # `from gripwatch import cli` names a submodule
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_every_name_the_benchmark_imports_from_gripwatch_resolves():
    found = list(gripwatch_imports())
    assert {file for file, _, _ in found} >= {"study_bench.py", "detect_bench.py"}
    assert [entry for entry in found if not imports(*entry[1:])] == []
