"""The counting stack loads on first use, and the package's names stay put.

Parsing, validating, listing and naming a knot never load ``grammars``,
``genfunc`` or ``fractions``; counting does.  Each case runs in a fresh
interpreter, since this process has loaded everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tieknot

SRC = Path(tieknot.__file__).resolve().parents[1]
COUNTING = ("tieknot.grammars", "tieknot.genfunc", "fractions")

# Runs its arguments as a tieknot command line (none: parses one knot
# through the package) and prints which counting modules got loaded.
PROBE = """
import contextlib, io, json, sys
if sys.argv[1:]:
    from tieknot.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(sys.argv[1:])
else:
    import tieknot
    tieknot.parse_tw("TTU")
print(json.dumps([name for name in %r if name in sys.modules]))
""" % (COUNTING,)


def _loaded(*argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ("validate", "--tw", "TWWWTTTUTTU"),
    ("name", "--tw", "TWWWTTTUTTU"),
    ("enumerate", "--class", "full", "--format", "jsonl", "--max-windings", "5"),
    (),
], ids=lambda argv: " ".join(argv) or "import tieknot")
def test_listing_naming_and_validating_load_no_counting_module(argv):
    assert _loaded(*argv) == []


@pytest.mark.parametrize("argv", [
    ("series", "full", "5"),
    ("enumerate", "--class", "full", "--count"),
], ids=" ".join)
def test_counting_loads_the_grammars_and_generating_functions(argv):
    assert {"tieknot.grammars", "tieknot.genfunc"} <= set(_loaded(*argv))


# Every name ``from tieknot import *`` bound when the package imported the
# counting stack eagerly.
PUBLIC = """
    Automaton CensusRow FinalClass Grammar KnotMetrics KnotName KnotWord Mismatch NamedKnot
    NamingError NotationError Orientation RationalGF Region RegionWord Series Tuck
    ValidityOptions ValidityReport Violation Visit WindDir balance canonicalize_tw catalog
    census classify_final clr_to_tw compare count_by_size cross_check enumeration expand
    final_region fit_recurrence fm_grammar full_grammar full_language generate genfunc
    grammars hidden_tuck_counts infer_orientations knot_of mirror name_of notation
    oracle_enumerate parse_clr parse_rational parse_tw registry render_instructions
    single_tuck_automaton single_tuck_clr_grammar single_tuck_tw_grammar symmetry
    tuck_parity_ok tuck_site_valid tuck_sites tw_to_clr validate validate_clr validity
""".split()


def test_star_import_binds_every_public_name_as_its_module_defines_it():
    namespace = {}
    exec("from tieknot import *", namespace)
    assert len(PUBLIC) == 64
    assert set(PUBLIC) <= set(namespace) and set(PUBLIC) <= set(dir(tieknot))
    for name in PUBLIC:
        value = namespace[name]
        if name in ("catalog", "enumeration", "genfunc", "grammars", "notation", "validity"):
            assert value is sys.modules[f"tieknot.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name), name
            assert value.__module__.startswith("tieknot."), name


def test_the_counting_modules_resolve_from_the_bare_package():
    code = "import tieknot; print(tieknot.grammars.__name__, tieknot.genfunc.__name__, tieknot.Series.__module__)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["tieknot.grammars", "tieknot.genfunc", "tieknot.genfunc"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'grammar'"):
        tieknot.grammar
