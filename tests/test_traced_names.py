"""The functions perfbench's tracer wraps must exist under their names.

``perfbench/run.py`` lists them in ``LAYER_FUNCTIONS``; a rename in the
package would leave a traced name behind and its per-layer metrics
empty.  The list is read with ``ast``, so perfbench is not imported.
"""

import ast
import functools
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


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
