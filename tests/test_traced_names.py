"""What perfbench reaches into the package by name must still be there.

``perfbench/run.py`` lists the functions its tracer wraps in
``LAYER_FUNCTIONS``; a rename in the package would leave a traced name
behind and its per-layer metrics empty.  ``perfbench/test_smoke.py``
breaks one line of ``catalog.py`` to prove the benchmark's checks catch
a wrong answer; a refactor that rewrote that line would disarm the
check.  Both are read with ``ast``, so perfbench is not imported.
"""

import ast
import functools
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
SMOKE = ROOT / "perfbench" / "test_smoke.py"
CATALOG = ROOT / "src" / "tieknot" / "catalog.py"


def _layer_functions():
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYER_FUNCTIONS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {RUN}")


def _resolves(name):
    module, *attributes = name.split(".")
    try:
        functools.reduce(getattr, attributes, importlib.import_module(f"tieknot.{module}"))
    except (ImportError, AttributeError):
        return False
    return True


def test_traced_layer_functions_exist():
    names = _layer_functions()
    assert len(names) > 20
    assert [name for name in names if not _resolves(name)] == []


def _mutation():
    """The ``(old, new)`` strings of the one ``source.replace`` in the smoke tests."""
    calls = [
        node
        for node in ast.walk(ast.parse(SMOKE.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "replace"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "source"
    ]
    assert len(calls) == 1, f"expected one source.replace(...) in {SMOKE}"
    return tuple(ast.literal_eval(arg) for arg in calls[0].args)


def test_benchmark_mutation_target_is_in_catalog():
    old, new = _mutation()
    assert old != new
    assert CATALOG.read_text(encoding="utf-8").count(old) == 1
