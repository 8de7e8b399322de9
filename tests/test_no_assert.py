"""The library checks with exceptions, so every check survives ``python -O``."""

import ast
import pathlib

import pytest

import tieknot

SOURCES = sorted(pathlib.Path(tieknot.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_the_sources_are_found():
    assert {"enumeration", "grammars", "validity"} <= {path.stem for path in SOURCES}
