import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from tieknot.notation import (
    KnotWord,
    NotationError,
    Orientation,
    Region,
    RegionWord,
    Tuck,
    WindDir,
    classify_final,
    clr_to_tw,
    final_region,
    infer_orientations,
    mirror,
    parse_clr,
    parse_tw,
    render_instructions,
    sort_key,
    step_region,
    tw_text_to_clr,
    tw_to_clr,
)
from tieknot.enumeration import final_region_of, full_language, single_tuck_knots

TRINITY = "TWWWTTTUTTU"
ELDREDGE = "TTTWWTTUTTWWU"


def test_parse_tw_trinity_structure():
    knot = parse_tw(TRINITY)
    assert knot.winding_count == 9
    assert knot.tucks == ((7, 1), (9, 1))
    assert knot.serialize() == TRINITY


def test_parse_tw_empty():
    knot = parse_tw("")
    assert knot.items == ()
    assert knot.serialize() == ""
    assert knot.move_count == 1


def test_parse_tw_separated_tucks():
    knot = parse_tw("TWTTU'UU")
    assert knot.windings == (WindDir.T, WindDir.W, WindDir.T, WindDir.T)
    assert knot.tucks == ((4, 1), (4, 2))
    assert knot.serialize() == "TWTTU'UU"


@pytest.mark.parametrize("bad", ["TXW", "U", "UTT", "T'U", "TU'", "TU'T", "TU''U"])
def test_parse_tw_rejects(bad):
    with pytest.raises(NotationError):
        parse_tw(bad)


def test_parse_clr_visits_and_tucks():
    word = parse_clr("RCLCRCLCRCLRURCLU")
    assert len(word.visits) == 15
    assert sum(1 for i in word.items if isinstance(i, Tuck)) == 2


def test_parse_clr_smallest_single_tuck():
    word = parse_clr("LCRU")
    assert word.regions == (Region.LEFT, Region.CENTER, Region.RIGHT)
    assert word.items[-1] == Tuck(1)


def test_parse_clr_adjacency_is_not_a_parse_error():
    word = parse_clr("LL")
    assert word.regions == (Region.LEFT, Region.LEFT)


def test_parse_ignores_whitespace():
    assert parse_tw(" TW WW  TTTUTTU ").serialize() == "TWWWTTTUTTU"
    spaced = "Ri Co Li Co Ri Co Li Co Ri Co Li Ro U Ci Ro Ci Lo U"
    assert parse_clr(spaced).serialize() == "RiCoLiCoRiCoLiCoRiCoLiRoUCiRoCiLoU"


def test_parse_clr_orientation_marks():
    word = parse_clr("LiCoRoU")
    assert word.visits[0].orientation is Orientation.IN
    assert word.visits[2].orientation is Orientation.OUT
    assert word.serialize() == "LiCoRoU"


def test_infer_orientations_reproduces_worked_example():
    # The unannotated form consistent with the published annotation;
    # its widely reproduced variant with ...LRUR... repeats a region.
    word = parse_clr("RCLCRCLCRCLRUCRCLU")
    annotated = infer_orientations(word)
    assert annotated.serialize() == "RiCoLiCoRiCoLiCoRiCoLiRoUCiRoCiLoU"


def test_infer_orientations_smallest():
    assert infer_orientations(parse_clr("LCRU")).serialize() == "LoCiRoU"


def test_infer_orientations_alternates_and_anchors_out():
    word = infer_orientations(parse_clr("LCRLRCRLUCRCLU"))
    orientations = [v.orientation for v in word.visits]
    assert all(a != b for a, b in zip(orientations, orientations[1:]))
    assert orientations[-1] is Orientation.OUT


def test_infer_orientations_needs_a_tuck():
    with pytest.raises(NotationError):
        infer_orientations(parse_clr("LR"))


def test_tw_to_clr_named_knots():
    assert tw_to_clr(parse_tw(TRINITY)).serialize() == "LCLRCRLCURLU"
    assert tw_to_clr(parse_tw(ELDREDGE)).serialize() == "LCRLRCRLUCRCLU"
    assert tw_to_clr(parse_tw("")).serialize() == "L"


def test_clr_to_tw_inverts():
    knot = clr_to_tw(parse_clr("LCLRCRLCURLU"))
    assert knot.start is Region.LEFT
    assert knot.serialize() == TRINITY


def test_clr_to_tw_rejects_repeat():
    with pytest.raises(NotationError, match="^repeated region C has no winding direction$"):
        clr_to_tw(parse_clr("LCC"))


def _clr_to_tw_by_steps(word):
    """clr_to_tw's definition: a winding is T when one turnwise step reaches the next visit."""
    region = word.items[0].region
    items = []
    for item in word.items[1:]:
        if isinstance(item, Tuck):
            items.append(item)
            continue
        if item.region == region:
            raise NotationError(f"repeated region {region.value} has no winding direction")
        items.append(WindDir.T if step_region(region, WindDir.T) == item.region else WindDir.W)
        region = item.region
    return KnotWord(start=word.items[0].region, items=tuple(items))


@given(st.text("LCRU'", min_size=1, max_size=24))
def test_clr_to_tw_matches_a_step_by_step_walk(text):
    try:
        word = parse_clr(text)
    except NotationError:
        return
    outcomes = []
    for convert in (clr_to_tw, _clr_to_tw_by_steps):
        try:
            outcomes.append(convert(word))
        except NotationError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_mirror_swaps_everything():
    knot = parse_tw(TRINITY)
    image = mirror(knot)
    assert image.start is Region.RIGHT
    assert image.serialize() == "WTTTWWWUWWU"
    assert mirror(image) == knot


def test_final_region_steps():
    assert final_region(parse_tw("TT")) is Region.RIGHT
    assert final_region(parse_tw("")) is Region.LEFT
    assert final_region(parse_tw(TRINITY)) is Region.LEFT


def test_classify_final():
    assert classify_final(parse_tw("WW")).value == "Classical-C"
    assert classify_final(parse_tw("TT")).value == "Modern-R"
    assert classify_final(parse_tw(ELDREDGE)).value == "Modern-L"


def test_metrics():
    metrics = parse_tw("TWTTU'UU").metrics()
    assert metrics.winding_count == 4
    assert metrics.move_count == 5
    assert metrics.symbol_count == 7  # four windings, three U characters
    assert metrics.tuck_count == 2
    assert metrics.max_tuck_depth == 2
    assert metrics.net_turn == 2


def test_net_turn_additivity():
    left, right = parse_tw("TWT"), parse_tw("WWTT")
    combined = KnotWord(start=left.start, items=left.items + right.items)
    rebased = KnotWord(start=final_region(left), items=right.items)
    assert final_region(combined) == final_region(rebased)


def test_render_instructions_smallest():
    text = render_instructions(parse_tw("TTU"))
    lines = text.splitlines()
    assert len(lines) == 3
    assert "under the previous bow" in lines[2]


def test_render_instructions_trinity():
    lines = render_instructions(parse_tw(TRINITY)).splitlines()
    assert len(lines) == 11
    assert lines[7].startswith("8. Tuck")
    assert lines[10].startswith("11. Tuck")


def test_render_instructions_deep_tuck_bow():
    text = render_instructions(parse_tw("TWTTUU"))
    assert "4 windings ago" in text


def test_render_instructions_rejects_invalid():
    with pytest.raises(ValueError):
        render_instructions(parse_tw(""))
    with pytest.raises(ValueError):
        render_instructions(parse_tw("TT"))


# -- property tests ---------------------------------------------------------

knot_words = st.builds(
    lambda windings, tucks: _assemble(windings, tucks),
    st.lists(st.sampled_from("TW"), min_size=1, max_size=12),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=11), st.integers(min_value=1, max_value=4)),
        max_size=4,
    ),
)


def _assemble(windings, tucks):
    items = []
    n = len(windings)
    by_position = {}
    for offset, depth in tucks:
        position = 1 + offset % n
        by_position.setdefault(position, []).append(depth)
    for position, ch in enumerate(windings, start=1):
        items.append(WindDir(ch))
        for depth in by_position.get(position, ()):
            items.append(Tuck(depth))
    return KnotWord(items=tuple(items))


def _tucks_in(text):
    """(position, depth) of every U run, the position counting the windings before it."""
    return tuple(
        (len(re.sub("[U']", "", text[: run.start()])), len(run.group()))
        for run in re.finditer("U+", text)
    )


@given(knot_words)
def test_serialize_parse_round_trip(knot):
    text = knot.serialize()
    assert parse_tw(text, knot.start) == knot
    # The views stored at construction agree with the text.
    assert "".join(knot.windings) == text.replace("U", "").replace("'", "")
    assert knot.tucks == _tucks_in(text)


def test_knot_word_items_are_wind_dirs_and_tucks():
    with pytest.raises(TypeError):
        KnotWord(items=("T",))
    assert KnotWord(items=(WindDir.T, WindDir.T, Tuck(1))).serialize() == "TTU"


@given(knot_words)
def test_mirror_is_an_involution(knot):
    assert mirror(mirror(knot)) == knot
    image = mirror(knot)
    assert image.winding_count == knot.winding_count
    assert image.tucks == knot.tucks
    assert image.metrics().symbol_count == knot.metrics().symbol_count


@given(knot_words)
def test_mirror_reflects_final_region(knot):
    reflected = {Region.LEFT: Region.RIGHT, Region.RIGHT: Region.LEFT, Region.CENTER: Region.CENTER}
    assert final_region(mirror(knot)) == reflected[final_region(knot)]


@given(knot_words)
def test_conversion_round_trip(knot):
    assert clr_to_tw(tw_to_clr(knot)) == knot


@given(knot_words)
def test_clr_serialization_round_trip(knot):
    word = tw_to_clr(knot)
    assert parse_clr(word.serialize()) == word


@given(knot_words, st.sampled_from(list(Region)))
def test_final_region_of_text_matches_final_region(knot, start):
    text = knot.serialize()
    assert final_region_of(text, start) is final_region(parse_tw(text, start))


@given(knot_words)
def test_classify_final_matches_residue_formula(knot):
    text = knot.serialize()
    residue = (text.count("W") - text.count("T")) % 3
    expected = {2: "Classical-C", 1: "Modern-R", 0: "Modern-L"}[residue]
    assert classify_final(knot).value == expected


TW_ORDER = {"T": 0, "W": 1, "U": 2, "'": 3}
CLR_ORDER = {"L": 0, "C": 1, "R": 2, "U": 3, "'": 4}


@given(knot_words, knot_words)
def test_sort_key_matches_per_alphabet_order(first, second):
    pairs = (
        (first.serialize(), second.serialize(), TW_ORDER),
        (tw_to_clr(first).serialize(), tw_to_clr(second).serialize(), CLR_ORDER),
    )
    for a, b, order in pairs:
        old_a, old_b = [order[c] for c in a], [order[c] for c in b]
        assert (sort_key(a) < sort_key(b)) == (old_a < old_b)
        assert (sort_key(a) == sort_key(b)) == (a == b)


# -- kept views ---------------------------------------------------------------
# A word keeps its text and region word once computed; parse_tw keeps its
# input as the text.  A word built afresh from the same fields computes
# every view from the items, so the two must agree.


def _assert_views_match_a_fresh_word(knot):
    fresh = KnotWord(knot.start, knot.items)
    assert knot == fresh and hash(knot) == hash(fresh)
    assert knot.serialize() == fresh.serialize()
    clr, fresh_clr = tw_to_clr(knot), tw_to_clr(fresh)
    assert clr == fresh_clr and hash(clr) == hash(fresh_clr)
    assert clr.serialize() == fresh_clr.serialize() == RegionWord(clr.items).serialize()


def _assert_kept_views_are_the_views(text, start):
    knot = parse_tw(text, start)
    _assert_views_match_a_fresh_word(knot)  # which leaves both views kept on the word
    # Words made from it anew compute their own views and inherit none.
    _assert_views_match_a_fresh_word(mirror(knot))
    _assert_views_match_a_fresh_word(dataclasses.replace(knot, start=Region.CENTER))
    if knot.items:
        _assert_views_match_a_fresh_word(dataclasses.replace(knot, items=knot.items[:-1]))


@settings(max_examples=300)  # about one random text in five parses
@given(st.text(alphabet="TWU'", max_size=16), st.sampled_from(list(Region)))
def test_kept_views_are_the_views(text, start):
    try:
        parse_tw(text, start)
    except NotationError:
        return
    _assert_kept_views_are_the_views(text, start)


def test_kept_views_are_the_views_for_every_member_to_nine_windings():
    for members in full_language(9, canonical=True).values():
        for text in members:
            for start in (Region.LEFT, Region.RIGHT):  # the canonical start and its mirror's
                _assert_kept_views_are_the_views(text, start)


def _assert_text_walk_is_the_conversion(text):
    assert tw_text_to_clr(text) == tw_to_clr(parse_tw(text)).serialize(), text


def test_text_walk_converts_every_single_tuck_knot_to_13_moves():
    for text in single_tuck_knots(12):
        _assert_text_walk_is_the_conversion(text)


def test_text_walk_converts_every_member_to_ten_windings():
    for members in full_language(10, canonical=True).values():
        for text in members:
            _assert_text_walk_is_the_conversion(text)


@settings(max_examples=300)  # about one random text in five parses
@given(st.text(alphabet="TWU'", max_size=16))
def test_text_walk_is_the_conversion(text):
    try:
        parse_tw(text)
    except NotationError:
        return
    _assert_text_walk_is_the_conversion(text)


# -- the one-walk parse -------------------------------------------------------
# parse_tw reads text once and keeps every view it writes.  The referee reads
# the same text token by token and builds the word from its items, so that
# every view of the expected word comes from the item walks.

_REFEREE_TOKENS = re.compile(r"U+|.", re.DOTALL)


def _referee_items(text):
    """Items of whitespace-free winding text, or its NotationError."""
    items, index = [], 0
    for symbol in _REFEREE_TOKENS.findall(text):
        if symbol in ("T", "W"):
            items.append(WindDir(symbol))
        elif symbol[0] == "U":
            if not items:
                raise NotationError("tuck before any winding", index)
            items.append(Tuck(len(symbol)))
        elif symbol == "'":
            if text[index - 1 : index] != "U" or text[index + 1 : index + 2] != "U":
                raise NotationError("' must sit between two U characters", index)
        else:
            raise NotationError(f"unexpected character {symbol!r}", index)
        index += len(symbol)
    return tuple(items)


@settings(max_examples=600)
@given(st.text(alphabet="TWU' \nXL", max_size=20), st.sampled_from(list(Region)))
def test_one_walk_parse_is_the_item_walk(text, start):
    try:
        expected = KnotWord(start, _referee_items("".join(text.split())))
    except NotationError as error:
        with pytest.raises(NotationError) as raised:
            parse_tw(text, start)
        assert (str(raised.value), raised.value.position) == (str(error), error.position)
        return
    knot = parse_tw(text, start)
    assert knot == expected and hash(knot) == hash(expected) and repr(knot) == repr(expected)
    assert all(item.__class__ in (WindDir, Tuck) for item in knot.items)
    assert knot.windings == expected.windings and knot.tucks == expected.tucks
    assert all(winding.__class__ is WindDir for winding in knot.windings)
    assert knot.serialize() == expected.serialize()
    clr, expected_clr = tw_to_clr(knot), tw_to_clr(expected)  # a lookup, and the item walk
    assert clr == expected_clr and repr(clr) == repr(expected_clr)
    assert clr.serialize() == expected_clr.serialize() == RegionWord(clr.items).serialize()


def test_one_walk_parse_rejects_like_the_item_walk():
    cases = {
        "'": "' must sit between two U characters (at index 0)",
        "TU'": "' must sit between two U characters (at index 2)",
        "TU'T": "' must sit between two U characters (at index 2)",
        "TU'X": "' must sit between two U characters (at index 2)",
        "TU''U": "' must sit between two U characters (at index 2)",
        "T'U": "' must sit between two U characters (at index 1)",
        "UTT": "tuck before any winding (at index 0)",
        "T T X": "unexpected character 'X' (at index 2)",
    }
    for text, message in cases.items():
        with pytest.raises(NotationError) as raised:
            parse_tw(text)
        assert str(raised.value) == message
