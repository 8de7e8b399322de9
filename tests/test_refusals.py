"""Refusals of malformed values, each with its own error and message."""

import pytest

from tieknot.catalog import KnotName, NamingError
from tieknot.enumeration import full_language
from tieknot.grammars import Grammar, GrammarError, T
from tieknot.notation import RegionWord, Tuck
from tieknot.validity import tuck_site_valid


@pytest.mark.parametrize("call, expected", [
    (lambda: KnotName("L", 0, 0), NamingError("pattern index is 1-based")),
    (lambda: KnotName("L", 1, -1), NamingError("tuck bits must be nonnegative")),
    (lambda: Tuck(0), ValueError("tuck depth must be >= 1, got 0")),
    (lambda: RegionWord((1,)), TypeError("not a region item: 1")),
    (lambda: Grammar("s", {}), GrammarError("start symbol 's' has no production")),
    (lambda: T("x", -1), GrammarError("negative weight on terminal 'x'")),
    (lambda: tuck_site_valid("TT", 2, 0), ValueError("tuck depth must be >= 1, got 0")),
    (lambda: full_language(5)[9], KeyError(9)),  # 2 to 5 windings: four buckets
    (lambda: len(full_language(5)), 4),
], ids=["pattern-index", "tuck-bits", "tuck-depth", "region-item", "start-symbol", "terminal-weight",
        "site-depth", "bucket-past-bound", "bucket-count"])
def test_a_malformed_value_is_refused_with_its_message(call, expected):
    if not isinstance(expected, Exception):
        assert call() == expected
        return
    with pytest.raises(Exception) as caught:
        call()
    assert (type(caught.value), caught.value.args) == (type(expected), expected.args)
