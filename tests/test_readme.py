"""The README's library examples run as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_examples():
    results = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert results.attempted >= 15
    assert results.failed == 0
