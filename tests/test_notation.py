import dataclasses
import random
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
    Visit,
    WindDir,
    canonicalize_tw,
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
    tw_texts_to_clr,
    tw_to_clr,
)
from tieknot import notation as N
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


def _tw_to_clr_by_steps(knot):
    """tw_to_clr's definition: the start visit, then each winding's region one
    step on from the last, tucks copied; the text spelled from the same steps."""
    region = knot.start
    items, text = [Visit(region)], region.value
    for item in knot.items:
        if isinstance(item, Tuck):
            items.append(item)
            text += ("'" if text.endswith("U") else "") + "U" * item.depth
        else:
            region = step_region(region, item)
            items.append(Visit(region))
            text += region.value
    return tuple(items), text


def _built_words(knot):
    """Words made from ``knot`` by each constructor that does not read text."""
    yield KnotWord(knot.start, knot.items)
    yield mirror(knot)
    yield clr_to_tw(RegionWord(_tw_to_clr_by_steps(knot)[0]))  # a region word never printed
    yield dataclasses.replace(knot, start=mirror(knot).start)
    if knot.items:
        yield dataclasses.replace(knot, items=knot.items[:-1])


def _assert_region_words_match_the_steps(knot):
    for word in _built_words(knot):
        items, text = _tw_to_clr_by_steps(word)
        clr = tw_to_clr(word)
        assert (clr.items, clr.serialize()) == (items, text), (word, text)


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


@pytest.mark.parametrize("direction", list(WindDir))
@pytest.mark.parametrize("region", list(Region))
def test_step_region_reads_letters_as_their_members(region, direction):
    for times in range(4):
        assert step_region(region.value, direction.value, times) is step_region(region, direction, times)
    assert step_region(Region.LEFT, "T") is Region.CENTER and step_region("L", "W") is Region.RIGHT


@pytest.mark.parametrize("letter", ["L", "C", "R"])
def test_a_start_given_by_its_letter_is_kept_as_its_region(letter):
    region = Region(letter)
    knot = parse_tw(ELDREDGE, letter)
    assert knot.start is region and knot == parse_tw(ELDREDGE, region)
    for built in (KnotWord(start=letter, items=knot.items), dataclasses.replace(knot, start=letter)):
        assert built.start is region and built == knot
    if letter == "L":
        assert classify_final(knot).value == "Modern-L"


@pytest.mark.parametrize("start", ["X", "l", "", None, 0])
def test_a_start_that_is_not_a_region_is_a_value_error(start):
    with pytest.raises(ValueError, match="is not a valid Region"):
        parse_tw("TTU", start)
    with pytest.raises(ValueError, match="is not a valid Region"):
        KnotWord(start=start, items=(WindDir.T, WindDir.T, Tuck(1)))


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


def test_final_region_is_kept_by_every_word_of_every_member_to_nine_windings():
    reflected = {Region.LEFT: Region.RIGHT, Region.RIGHT: Region.LEFT, Region.CENTER: Region.CENTER}
    for members in full_language(9).values():
        for text in members:
            for start in Region:
                expected = final_region_of(text, start)
                knot = parse_tw(text, start)
                words = (knot, KnotWord(start, knot.items), clr_to_tw(tw_to_clr(knot)))
                assert [final_region(word) for word in words] == [expected] * 3, (text, start)
                assert final_region(mirror(knot)) is reflected[expected]
                other = step_region(start, WindDir.T)
                assert final_region(dataclasses.replace(knot, start=other)) is final_region_of(text, other)
                assert knot.metrics().net_turn == (text.count("T") - text.count("W")) % 3


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


@given(knot_words, st.sampled_from(list(Region)))
def test_region_word_of_a_built_word_matches_a_step_by_step_walk(knot, start):
    _assert_region_words_match_the_steps(KnotWord(start, knot.items))


def test_region_word_of_every_built_member_to_nine_windings_matches_the_steps():
    for members in full_language(9).values():
        for text in members:
            for start in (Region.LEFT, Region.RIGHT):  # the canonical start and its mirror's
                _assert_region_words_match_the_steps(parse_tw(text, start))


def _assert_text_walk_is_the_conversion(text):
    assert tw_texts_to_clr([text]) == [tw_to_clr(parse_tw(text)).serialize()], text


def test_text_walk_converts_every_single_tuck_knot_to_13_moves():
    for text in single_tuck_knots(12):
        _assert_text_walk_is_the_conversion(text)


def test_text_walk_converts_every_member_to_ten_windings():
    for members in full_language(10).values():
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


# -- the batch conversion -----------------------------------------------------
# tw_texts_to_clr reads joined texts through a table of fixed-length runs.
# The referee walks each text one character at a time.

_WALK_TURN = {"T": 1, "W": 2}


def _walk_to_clr(text):
    """Region text of winding text: from L, each T/W writes the next region
    along the cycle L C R, and every other character copies through."""
    index, letters = 0, ["L"]
    for ch in text:
        turn = _WALK_TURN.get(ch)
        if turn is None:
            letters.append(ch)
        else:
            index = (index + turn) % 3
            letters.append("LCR"[index])
    return "".join(letters)


def _clear_run_table():
    for runs in N._RUN_TABLE:
        runs.clear()


def _assert_batches_match_the_walk(texts):
    expected = [_walk_to_clr(text) for text in texts]
    assert tw_texts_to_clr(texts) == expected
    assert tw_texts_to_clr(iter(texts)) == expected
    assert [clr for text in texts for clr in tw_texts_to_clr([text])] == expected


def test_batches_of_every_length_to_40_match_the_walk():
    rng = random.Random(22)
    texts = ["", "", "T", "U", "'"] + [
        "".join(rng.choice("TWU'") for _ in range(length))
        for length in range(41)  # both sides of every multiple of the run length
        for _ in range(3)
    ]
    assert tw_texts_to_clr([]) == []
    _clear_run_table()  # a cold table, then a warm one
    for _ in range(2):
        _assert_batches_match_the_walk(texts)
        _assert_batches_match_the_walk(texts[::-1])
        for text in texts:
            _assert_batches_match_the_walk([text])


@given(st.lists(st.text(alphabet="TWU'", max_size=40), max_size=12))
def test_random_batches_match_the_walk(texts):
    _assert_batches_match_the_walk(texts)


def test_one_batch_converts_every_single_tuck_knot_to_13_moves():
    texts = list(single_tuck_knots(12))
    assert len(texts) == 24882
    assert tw_texts_to_clr(texts) == [tw_to_clr(parse_tw(text)).serialize() for text in texts]


@pytest.mark.parametrize(
    "texts, position", [(["T\nU"], 1), (["\n"], 0), (["TTU", "TU\n"], 2), (["", "WW\nU", "T"], 2)]
)
def test_a_newline_inside_a_text_is_refused(texts, position):
    with pytest.raises(NotationError, match="unexpected character") as caught:
        tw_texts_to_clr(texts)
    assert caught.value.position == position


_RUN_TABLE_BOUND = 3 * sum(5**length for length in range(1, N._RUN + 1))


def test_runs_with_other_characters_are_copied_but_not_stored():
    assert _RUN_TABLE_BOUND == 58590
    _clear_run_table()
    assert tw_texts_to_clr(["TTxWWU", "TWTW"]) == ["LCRxCLU", "LCLCL"]
    assert "TTxWWU" not in N._RUN_TABLE[0]
    assert N._RUN_TABLE[0]["\nTWTW"] == ("\nLCLCL", 0)  # the run after it is stored
    rng = random.Random(2022)
    for _ in range(300):
        texts = [
            "".join(rng.choice("TWU'TWU'xLC R\t\u00e9") for _ in range(rng.randrange(41)))
            for _ in range(rng.randrange(8))
        ]
        _assert_batches_match_the_walk(texts)
    stored = [run for runs in N._RUN_TABLE for run in runs]
    assert 0 < len(stored) <= _RUN_TABLE_BOUND
    assert all(len(run) <= N._RUN and not set(run) - set("TWU'\n") for run in stored)


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


# -- the one-walk region parse -------------------------------------------------
# parse_clr reads region text once and keeps every view it writes.  The referee
# is a token reader (a regex over U runs and marked letters) whose views come
# from walks over the items it builds.

_REFEREE_CLR_TOKENS = re.compile(r"U+|[LCR][io]?|.", re.DOTALL)


def _referee_clr_items(text):
    """Items of whitespace-free region text, or its NotationError."""
    items, index = [], 0
    for symbol in _REFEREE_CLR_TOKENS.findall(text):
        if symbol[0] in "LCR":
            mark = Orientation(symbol[1]) if len(symbol) == 2 else None
            items.append(Visit(Region(symbol[0]), mark))
        elif symbol[0] == "U":
            if not items:
                raise NotationError("tuck before any region visit", index)
            items.append(Tuck(len(symbol)))
        elif symbol == "'":
            if text[index - 1 : index] != "U" or text[index + 1 : index + 2] != "U":
                raise NotationError("' must sit between two U characters", index)
        else:
            raise NotationError(f"unexpected character {symbol!r}", index)
        index += len(symbol)
    return tuple(items)


def _referee_clr_views(items):
    """Winding letters (none at a repeat), (position, depth) tucks and winding
    text (None when a region repeats) of region items, each by its own walk."""
    regions = [item.region for item in items if isinstance(item, Visit)]
    windings = tuple(
        None if a is b else WindDir.T if step_region(a, WindDir.T) is b else WindDir.W
        for a, b in zip(regions, regions[1:])
    )
    tucks, visits = [], 0
    for item in items:
        if isinstance(item, Tuck):
            tucks.append((visits - 1, item.depth))
        else:
            visits += 1
    text, winding = "", iter(windings)
    for item in items[1:]:
        if isinstance(item, Tuck):
            text += ("'" if text.endswith("U") else "") + "U" * item.depth
        else:
            text += next(winding) or "?"
    return "".join(filter(None, windings)), tuple(tucks), None if None in windings else text


def _views(word):
    return word._windings, word._tucks, word._tw_text


@settings(max_examples=600)
@given(st.text(alphabet="LCRUio' X\n", max_size=20))
def test_one_walk_region_parse_is_the_token_reader(text):
    stripped = "".join(text.split())
    try:
        expected = _referee_clr_items(stripped)
    except NotationError as error:
        with pytest.raises(NotationError) as raised:
            parse_clr(text)
        assert (str(raised.value), raised.value.position) == (str(error), error.position)
        return
    word = parse_clr(text)
    assert word.items == expected and repr(word) == repr(RegionWord(expected))
    assert all(item.__class__ in (Visit, Tuck) for item in word.items)
    assert word.serialize() == stripped == RegionWord(expected).serialize()
    assert _views(word) == _views(RegionWord(expected)) == _referee_clr_views(expected)


def test_region_parse_of_every_member_to_nine_windings_keeps_the_knot_views():
    for members in full_language(9).values():
        for text in members:
            for start in Region:
                knot = parse_tw(text, start)
                kept = tw_to_clr(knot)
                word = parse_clr(kept.serialize())
                assert _views(word) == _views(kept) == ("".join(knot.windings), knot.tucks, text)
                built = RegionWord(word.items)
                assert built == word and built.serialize() == word.serialize()
                assert _views(built) == _views(word) == _views(infer_orientations(word))
                assert clr_to_tw(word) == knot


@pytest.mark.parametrize("region, orientation", [("L", None), (Region.LEFT, "o")])
def test_visit_refuses_a_region_or_mark_that_is_not_one(region, orientation):
    with pytest.raises(TypeError, match="not a region and mark"):
        Visit(region, orientation)


def test_region_word_built_from_items_that_open_with_a_tuck_raises():
    with pytest.raises(NotationError) as raised:
        RegionWord((Tuck(1), Visit(Region.LEFT)))
    assert str(raised.value) == "tuck before any region visit (at index 0)"


# -- the canonicaliser ---------------------------------------------------------
# canonicalize_tw places the apostrophes of one text; a list of texts is read one at a time.


def _keep_apostrophes_between_tucks(text):
    """The referee: each apostrophe stays only with a U on both sides."""
    return "".join(ch for i, ch in enumerate(text)
                   if ch != "'" or text[i - 1:i] == text[i + 1:i + 2] == "U")


def test_canonicaliser_keeps_the_apostrophes_between_tucks_of_every_member_to_11_windings(raw_full_members_12):
    raw = [text for text, windings in raw_full_members_12.items() if windings <= 11]
    assert sum("'" in text for text in raw) > 10000
    assert list(map(canonicalize_tw, raw)) == [_keep_apostrophes_between_tucks(text) for text in raw]


@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("stray, index", [("'TTU", 0), ("TT'U", 2), ("TTU'", 3), ("TTU''UU", 4)])
def test_a_stray_apostrophe_is_refused_at_its_index_within_its_text(where, stray, index):
    texts = ["TTU'WWU", "WWUUU'U", "TTU'UU"]  # a loose and two kept apostrophes
    texts[where] = stray
    with pytest.raises(NotationError) as caught:
        list(map(canonicalize_tw, texts))
    assert str(caught.value) == f"' must follow a tuck (at index {index})"
    assert caught.value.position == index


def test_canonicaliser_refuses_a_newline_at_its_index_within_its_text():
    for texts in (["TTU", "WW\nU"], ["TTU'\nWWU"], ["TT\nU"]):
        with pytest.raises(NotationError, match="unexpected character") as caught:
            list(map(canonicalize_tw, texts))
        assert caught.value.position == texts[-1].index("\n")


@pytest.mark.parametrize(
    "text, index", [("TT U' U", 2), ("TTU 'U", 3), ("TTU'\nU", 4), ("TTU'\tU", 4), ("TTU'\u3000U", 4)]
)
def test_canonicaliser_refuses_whitespace_as_it_refuses_a_newline(text, index):
    assert parse_tw(text).serialize() == "TTU'U"  # the knot the text names: dropping the ' would change it
    for texts in ([text], ["TTU'WWU", text], ["WWU", text, "TT U"]):  # the first text holding one
        with pytest.raises(NotationError, match="unexpected character") as caught:
            list(map(canonicalize_tw, texts))
        assert caught.value.position == index, texts


def _first_stray(text):
    """The index of the first apostrophe not after a U or ending the text, or None."""
    for i, ch in enumerate(text):
        if ch == "'" and (text[i - 1:i] != "U" or i == len(text) - 1):
            return i
    return None


@given(st.lists(st.text(alphabet="TWU'", max_size=12), max_size=6))
def test_random_batches_canonicalise_or_refuse_as_the_referee(texts):
    stray = next((index for index in map(_first_stray, texts) if index is not None), None)
    if stray is None:
        assert list(map(canonicalize_tw, texts)) == [_keep_apostrophes_between_tucks(text) for text in texts]
    else:
        with pytest.raises(NotationError) as caught:
            list(map(canonicalize_tw, texts))
        assert str(caught.value) == f"' must follow a tuck (at index {stray})"
