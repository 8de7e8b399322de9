"""The CLI reaches a language only through ``enumeration.LANGUAGES``."""

import ast
import pathlib

import tieknot

CLI = pathlib.Path(tieknot.__file__).parent / "cli.py"


def _imported_names(tree):
    # Every dotted part of every module an import names, and every name it imports.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            yield from (node.module or "").split(".")
            yield from (alias.name for alias in node.names)


def test_the_cli_does_not_import_the_grammars():
    names = set(_imported_names(ast.parse(CLI.read_text(), filename=str(CLI))))
    assert "enumeration" in names and "grammars" not in names
