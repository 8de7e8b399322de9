"""Every Sphinx cross-reference in the package's source names something real."""

import importlib
import pathlib
import re

import pytest

import tieknot

SOURCES = sorted(p for p in pathlib.Path(tieknot.__file__).parent.glob("*.py") if p.stem != "__main__")
REFERENCE = re.compile(r":(?:func|class|mod):`~?([\w.]+)`")


def _lookup(namespace, dotted):
    for attr in dotted.split("."):
        namespace = getattr(namespace, attr, None)
        if namespace is None:
            return None
    return namespace


def _resolves(module, target):
    """``target`` names an attribute of ``module``, of ``tieknot``, or of a
    module reached by a dotted path (``fractions.Fraction``)."""
    if _lookup(module, target) is not None or _lookup(tieknot, target) is not None:
        return True
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _lookup(found, ".".join(parts[cut:])) is not None if cut < len(parts) else True
    return False


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_cross_reference_resolves(path):
    module = importlib.import_module(f"tieknot.{path.stem}" if path.stem != "__init__" else "tieknot")
    targets = REFERENCE.findall(path.read_text())
    assert [target for target in targets if not _resolves(module, target)] == []


def test_the_references_are_found():
    assert sum(len(REFERENCE.findall(path.read_text())) for path in SOURCES) > 50
