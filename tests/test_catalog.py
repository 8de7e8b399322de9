import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tieknot import catalog as C
from tieknot import cli, genfunc
from tieknot import enumeration as E
from tieknot.notation import Region, mirror, parse_tw
from tieknot.enumeration import decorate, depth1_sites, final_region_of, full_language
from tieknot.enumeration import oracle_enumerate
from tieknot.validity import ValidityOptions, validate

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


_UNCAPPED = ValidityOptions(max_moves=None)
NO_FINAL_SITE = "not a winding pattern: no final depth-1 tuck site"
NO_ANCHOR = "no final depth-1 tuck to anchor the pattern name"


def _ranked_name(knot):
    """The name, ranked before the anchoring final tuck is looked for:
    validity first, then the pattern rank (which refuses a pattern whose
    last two windings differ), then the anchor."""
    report = validate(knot, _UNCAPPED)
    if not report.valid:
        raise C.NamingError(f"cannot name an invalid knot: {report.violations[0]}")
    windings = "".join(knot.windings)
    n, rank = len(windings), C.pattern_rank(windings)
    if (n, 1) not in knot.tucks:
        raise C.NamingError(NO_ANCHOR)
    sites = depth1_sites(windings)
    bits = sum(1 << sites.index(p) for p, d in knot.tucks if d == 1 and p < n)
    extension = "".join(f"+p{p}d{d}" for p, d in knot.tucks if d > 1)
    return C.KnotName(final_region_of(windings), rank, bits, extension)


def _name_or_refusal(name, knot):
    try:
        return name(knot)
    except C.NamingError as error:
        return str(error)


def test_name_of_refuses_before_it_ranks_with_the_same_answers():
    texts = [text for members in full_language(10).values() for text in members]
    texts += E.single_tuck_knots(12)  # to 13 moves
    refusals = Counter()
    for text in texts:
        knot = parse_tw(text)
        answer = _name_or_refusal(C.name_of, knot)
        assert answer == _name_or_refusal(_ranked_name, knot), text
        if isinstance(answer, str):  # each refusal class by its definition; validity first
            windings = knot.windings
            if not validate(knot, _UNCAPPED).valid:
                assert answer.startswith("cannot name an invalid knot: ["), text
            elif windings[-1] != windings[-2]:
                assert answer == NO_FINAL_SITE, text
            else:
                assert (len(windings), 1) not in knot.tucks and answer == NO_ANCHOR, text
            refusals[answer.split(":")[0]] += 1
    assert set(refusals) == {"cannot name an invalid knot", "not a winding pattern", NO_ANCHOR}


def _thrash_pattern_memo():
    """Name more distinct patterns than the memo holds, one after another."""
    memo = C._pattern_facts
    for rank in range(1, memo.cache_info().maxsize + 2):
        C.name_of(C.knot_of(C.KnotName(Region.LEFT, rank, 0)))
        assert memo.cache_info().currsize <= memo.cache_info().maxsize
    assert memo.cache_info().currsize == memo.cache_info().maxsize


def test_pattern_memo_names_as_the_referee_cleared_warm_and_thrashed():
    knots = [parse_tw(text) for members in full_language(10).values() for text in members]
    expected = [_name_or_refusal(_ranked_name, knot) for knot in knots]
    memo = C._pattern_facts
    memo.cache_clear()
    for state in ("cleared", "warm", "thrashed"):
        if state == "thrashed":
            _thrash_pattern_memo()
        answers = [_name_or_refusal(C.name_of, knot) for knot in knots]
        assert answers == expected, state
        assert memo.cache_info().currsize <= memo.cache_info().maxsize, state
    assert memo.cache_info().hits > 0


def test_name_of_ranks_each_pattern_once_while_it_is_remembered(monkeypatch):
    ranked = Counter()
    rank = C.pattern_rank
    monkeypatch.setattr(C, "pattern_rank", lambda windings: ranked.update([windings]) or rank(windings))
    C._pattern_facts.cache_clear()
    names = [C.name_of(knot) for knot in oracle_enumerate(9, ValidityOptions(max_tuck_depth=1))]
    assert len(names) > len(ranked) and set(ranked.values()) == {1}


@pytest.mark.parametrize("windings, kept", [(64, True), (65, False)])
def test_pattern_memo_keeps_patterns_to_64_windings(windings, kept):
    stem = ("TW" * windings)[: windings - 1]
    knot = parse_tw(stem + stem[-1] + "U")  # a pattern: a stem, its last letter again, a tuck
    memo = C._pattern_facts
    memo.cache_clear()
    assert C.name_of(knot) == _ranked_name(knot)
    assert memo.cache_info().currsize == kept  # a longer one would hold O(windings)


def test_name_extension_for_deep_tucks():
    name = C.name_of(parse_tw("TWTTU'UU"))
    assert name.extension == "+p4d2"
    assert name.tuck_bits == 0
    assert str(name).endswith(".0+p4d2")


def test_names_are_injective_over_nameable_knots():
    from tieknot.enumeration import full_language

    names = {}
    for members in full_language(8).values():
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


def test_knot_of_inverts_name_of_exhaustive():
    for knot in oracle_enumerate(12, ValidityOptions(max_tuck_depth=1)):
        assert C.knot_of(C.name_of(knot)) == knot


def test_pattern_rank_matches_listing_to_14_windings(listed_classes):
    for region, patterns in listed_classes(14).items():
        for rank, windings in enumerate(patterns, start=1):
            assert C.pattern_rank(windings) == rank, windings
            assert C.pattern_of(region, rank) == windings
            knot = C.knot_of(C.KnotName(region, rank, 0))
            assert "".join(knot.windings) == windings


# Winding patterns by final region, as the published closed forms in
# moves; the right- and center-final patterns are equinumerous.
PUBLISHED_WINDINGS = {
    Region.RIGHT: "z^3/(1-z-2z^2)",
    Region.LEFT: "2z^4/((1-2z)(1+z))",
    Region.CENTER: "z^3/(1-z-2z^2)",
}


@pytest.mark.parametrize("region", list(Region))
def test_class_sizes_match_closed_forms_to_order_60(region, capsys):
    form = PUBLISHED_WINDINGS[region]
    series = list(genfunc.expand(genfunc.parse_rational(form), 61))  # degree counts moves
    turn = E.TURN_OF_REGION[region]
    sizes = [E.pattern_count(moves - 1, turn) if moves >= 3 else 0 for moves in range(61)]
    assert series == sizes
    # The running totals count the class's patterns of fewer windings.
    for windings in range(2, 61):
        assert E.patterns_below(windings, turn) == sum(series[: windings + 1])
    assert cli.main(["series", f"windings-{region.value.lower()}", "60"]) == 0
    assert capsys.readouterr().out == ", ".join(map(str, series)) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(Region)), st.integers(min_value=1, max_value=10**30))
def test_knot_of_names_back_to_any_rank(region, index):
    name = C.KnotName(region, index, 0)
    assert C.name_of(C.knot_of(name)) == name


def test_knot_of_inverts_name_of_for_long_knots():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(17, 90)  # past the 64 windings that naming memoizes
        stem = "".join(rng.choice("TW") for _ in range(n - 1))
        windings = stem + stem[-1]
        sites = [p for p in depth1_sites(windings) if p < n]
        knot = parse_tw(decorate(windings, {p for p in sites if rng.random() < 0.5}))
        assert C.knot_of(C.name_of(knot)) == knot


def test_name_of_inverts_knot_of_first_patterns():
    for region in (Region.LEFT, Region.RIGHT, Region.CENTER):
        for index in (1, 2, 7):
            name = C.KnotName(region, index, 0)
            assert C.name_of(C.knot_of(name)) == name


def test_knot_of_a_huge_rank_keeps_no_memory():
    name = C.KnotName(Region.LEFT, int("7" * 4000), 0)
    tracemalloc.start()
    try:
        assert C.knot_of(name).winding_count == 13_289
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000  # nothing of the unranking outlives the call


def test_knot_of_range_checks():
    with pytest.raises(C.NamingError):
        C.knot_of(C.KnotName(Region.RIGHT, 1, 1))  # TT has no internal site
    with pytest.raises(C.NamingError):
        C.KnotName.parse("R-0.0")
    with pytest.raises(C.NamingError):
        C.KnotName.parse("Trinity")


def test_name_too_long_to_print_says_how_long():
    with pytest.raises(C.NamingError, match="pattern rank has 5001 digits"):
        str(C.KnotName(Region.LEFT, 10**5000, 0))
    with pytest.raises(C.NamingError, match="tuck-bit number has 4400 digits"):
        str(C.KnotName(Region.LEFT, 1, 10**4400 - 1))
    with pytest.raises(C.NamingError, match="1-based"):
        C.pattern_of(Region.LEFT, 0)


@pytest.mark.parametrize("letter", ["L", "C", "R"])
def test_a_name_region_given_by_its_letter_is_kept_as_its_region(letter):
    name = C.KnotName(letter, 1, 0)
    assert name.region is Region(letter) and name == C.KnotName(Region(letter), 1, 0)
    assert str(name) == f"{letter}-1.0"
    assert C.knot_of(name) == C.knot_of(C.KnotName.parse(str(name)))


@pytest.mark.parametrize("region", ["X", "l", "", None, 0])
def test_a_name_region_that_is_not_a_region_is_a_naming_error(region):
    with pytest.raises(C.NamingError, match="not a region"):
        C.KnotName(region, 3, 0)


def test_name_parse_round_trip():
    name = C.KnotName.parse("L-110.2")
    assert (name.region, name.pattern_index, name.tuck_bits) == (Region.LEFT, 110, 2)
    assert str(name) == "L-110.2"


def test_name_parse_reads_back_every_printed_name():
    from tieknot.enumeration import full_language

    # name_of makes its names without KnotName's input checks; each must be
    # the name the checked constructor makes from the printed text.
    extended = 0
    for members in full_language(11).values():
        for text in members:
            try:
                name = C.name_of(parse_tw(text))
            except C.NamingError:
                continue
            parsed = C.KnotName.parse(str(name))
            assert (parsed, hash(parsed), repr(parsed)) == (name, hash(name), repr(name))
            extended += bool(name.extension)
    assert extended > 20000


@pytest.mark.parametrize(
    "text",
    ["L-1_0.0", "L-+5.0", "L- 5.0", "L-1.\u0663", "L-\u0665.0", "L-01.0", "L-1.00",
     "L-1.0 ", "L-1.0+p4", "L-1.0+p04d2", "l-1.0", "L-1", "L1.0", "L--1.0", "R-0.0"],
)
def test_name_parse_refuses_other_spellings(text):
    with pytest.raises(C.NamingError, match="not a knot name"):
        C.KnotName.parse(text)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="LCRQ-.+pd0123456789_ \u0663", max_size=14))
def test_name_parse_accepts_only_what_str_writes(text):
    try:
        name = C.KnotName.parse(text)
    except C.NamingError:
        return
    assert str(name) == text


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


def test_balance_counts_unequal_neighbours_to_12_windings():
    for n in range(1, 13):
        for letters in itertools.product("TW", repeat=n):
            knot = parse_tw("".join(letters) + "U")
            assert C.balance(knot) == sum(a != b for a, b in zip(letters, letters[1:])), letters


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


@pytest.mark.parametrize("line, reason", [
    ("Two fields\tTTU", "not enough values to unpack"),
    ("Bad start\tX\tTTU", "'X' is not a valid Region"),
    ("Bad text\tL\tTTQ", "unexpected character"),
])
def test_a_malformed_registry_line_is_named_by_its_number(tmp_path, line, reason):
    extra = tmp_path / "more.tsv"
    extra.write_text(f"# name, start, winding text\nGood\tL\tTTU\n\n{line}\n")
    for read in (lambda: C.registry(str(extra)), lambda: C.lookup("Good", str(extra))):
        with pytest.raises(ValueError, match=r"^registry line 4: ") as caught:
            read()
        assert reason in str(caught.value)


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
