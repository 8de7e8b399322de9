import os

import pytest

from tieknot import catalog as C
from tieknot.notation import Region, mirror, parse_tw
from tieknot.enumeration import oracle_enumerate
from tieknot.validity import ValidityOptions

TRINITY = parse_tw("TWWWTTTUTTU")
ELDREDGE = parse_tw("TTTWWTTUTTWWU")


def test_name_components_of_named_knots():
    trinity = C.name_of(TRINITY)
    assert trinity.region is Region.LEFT
    assert trinity.tuck_bits == 2  # the 2nd potential internal site
    eldredge = C.name_of(ELDREDGE)
    assert eldredge.region is Region.LEFT
    assert eldredge.tuck_bits == 4  # the 3rd of four internal sites


def test_name_without_internal_tucks_ends_in_zero():
    assert str(C.name_of(parse_tw("TTU"))) == "R-1.0"
    assert C.name_of(parse_tw("WWU")).tuck_bits == 0


def test_name_rejects_bad_input():
    with pytest.raises(C.NamingError):
        C.name_of(parse_tw("TT"))  # no final tuck
    with pytest.raises(C.NamingError):
        C.name_of(mirror(TRINITY))  # start R
    with pytest.raises(C.NamingError):
        C.name_of(parse_tw("TTTWUU"))  # no final depth-1 site to anchor a pattern
    with pytest.raises(C.NamingError):
        C.name_of(parse_tw("TWTTUU"))  # final site exists but carries no shallow tuck


def test_name_extension_for_deep_tucks():
    name = C.name_of(parse_tw("TWTTU'UU"))
    assert name.extension == "+p4d2"
    assert name.tuck_bits == 0
    assert str(name).endswith(".0+p4d2")


def test_names_are_injective_over_nameable_knots():
    from tieknot.enumeration import full_language

    names = {}
    for members in full_language(8, canonical=True).values():
        for text in members:
            try:
                name = str(C.name_of(parse_tw(text)))
            except C.NamingError:
                continue
            assert names.setdefault(name, text) == text, name
    assert len(names) > 1400


def test_knot_of_inverts_name_of_to_10_windings():
    for knot in oracle_enumerate(10, ValidityOptions(max_tuck_depth=1)):
        name = C.name_of(knot)
        assert C.knot_of(name) == knot


@pytest.mark.skipif(
    os.environ.get("TIEKNOT_EXTENDED") != "1",
    reason="set TIEKNOT_EXTENDED=1 for the 13-move exhaustive run",
)
def test_knot_of_inverts_name_of_exhaustive():
    for knot in oracle_enumerate(12, ValidityOptions(max_tuck_depth=1)):
        assert C.knot_of(C.name_of(knot)) == knot


def test_name_of_inverts_knot_of_first_patterns():
    for region in (Region.LEFT, Region.RIGHT, Region.CENTER):
        for index in (1, 2, 7):
            name = C.KnotName(region, index, 0)
            assert C.name_of(C.knot_of(name)) == name


def test_knot_of_range_checks():
    with pytest.raises(C.NamingError):
        C.knot_of(C.KnotName(Region.RIGHT, 1, 1))  # TT has no internal site
    with pytest.raises(C.NamingError):
        C.KnotName.parse("R-0.0")
    with pytest.raises(C.NamingError):
        C.KnotName.parse("Trinity")


def test_name_parse_round_trip():
    name = C.KnotName.parse("L-110.2")
    assert (name.region, name.pattern_index, name.tuck_bits) == (Region.LEFT, 110, 2)
    assert str(name) == "L-110.2"


def test_tuck_bits_enumerate_the_pattern():
    # Every bit pattern over the internal sites is a distinct valid knot.
    from tieknot.validity import validate

    windings = "TWWWTTTTT"  # the Trinity's pattern: internal sites at 3 and 7
    seen = set()
    for bits in range(4):
        knot = C.knot_of(C.KnotName(Region.LEFT, C.pattern_rank(windings), bits))
        assert validate(knot).valid
        seen.add(knot.serialize())
    assert len(seen) == 4


def test_aesthetics_named_knots():
    assert C.balance(ELDREDGE) == 3
    assert C.symmetry(ELDREDGE) == 0
    assert C.balance(TRINITY) == 2
    assert C.symmetry(TRINITY) == 1
    assert C.balance(parse_tw("TTU")) == 0
    assert C.symmetry(parse_tw("TTU")) == 0


def test_aesthetics_mirror_invariant():
    for text in ("TTU", "TWWWTTTUTTU", "TTTWWTTUTTWWU", "TTUTTUTTU"):
        knot = parse_tw(text)
        assert C.symmetry(mirror(knot)) == C.symmetry(knot)
        assert C.balance(mirror(knot)) == C.balance(knot)


def test_registry_contents():
    knots = C.registry()
    names = {k.common_name: k for k in knots}
    assert names["Trinity"].tw.serialize() == "TWWWTTTUTTU"
    assert names["Eldredge"].clr.serialize() == "LCRLRCRLUCRCLU"
    assert C.lookup("trinity").common_name == "Trinity"
    assert C.lookup("Windsor") is None


def test_registry_extension_file(tmp_path):
    extra = tmp_path / "more.tsv"
    extra.write_text("Onassis test\tL\tTTU\n")
    names = [k.common_name for k in C.registry(str(extra))]
    assert names == ["Eldredge", "Trinity", "Onassis test"]


def test_shipped_registry_is_parsed_once(monkeypatch, tmp_path):
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return original(text)

    original = C._parse_registry
    monkeypatch.setattr(C, "_parse_registry", counting_parse)
    C._shipped_registry.cache_clear()
    assert C.lookup("Trinity").tw.serialize() == "TWWWTTTUTTU"
    assert C.lookup("Eldredge") is not None
    assert len(parsed) == 1

    # Each call hands out its own list; an extra file is read every time.
    first = C.registry()
    first.clear()
    assert len(C.registry()) == 2
    extra = tmp_path / "more.tsv"
    extra.write_text("Onassis test\tL\tTTU\n")
    assert C.lookup("Onassis test", str(extra)) is not None
    extra.write_text("Onassis test\tL\tTTUTTU\n")
    assert C.lookup("Onassis test", str(extra)).tw.serialize() == "TTUTTU"
    assert len(parsed) == 3
