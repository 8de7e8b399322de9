import itertools

import pytest
from hypothesis import given, strategies as st

from tieknot.enumeration import full_language, single_tuck_knots
from tieknot.notation import (
    KnotWord,
    Orientation,
    Region,
    RegionWord,
    Tuck,
    Visit,
    WindDir,
    clr_to_tw,
    infer_orientations,
    parse_tw,
    tw_to_clr,
)
from tieknot.validity import (
    DEFAULT_OPTIONS,
    RULE_FRONT_TUCK,
    RULE_TUCK_ROOM,
    RULE_WINDOW,
    ValidityOptions,
    ValidityReport,
    Violation,
    tuck_parity_ok,
    tuck_site_valid,
    tuck_sites,
    validate,
    validate_clr,
)
from tieknot.notation import NotationError, parse_clr


def dirs(text):
    return [WindDir(c) for c in text]


def test_window_rule_worked_example():
    # TWTT ends on an equal pair and, over the whole four windings,
    # carries two more T than W: valid for both depths.
    assert tuck_site_valid(dirs("TWTT"), 4, 1)
    assert tuck_site_valid(dirs("TWTT"), 4, 2)
    assert not tuck_site_valid(dirs("WT"), 2, 1)


def test_window_rule_depth_one_is_equal_pair():
    for a, b in itertools.product("TW", repeat=2):
        assert tuck_site_valid(dirs(a + b), 2, 1) == (a == b)


def test_window_rule_needs_room():
    assert not tuck_site_valid(dirs("TT"), 1, 1)
    assert not tuck_site_valid(dirs("TWTT"), 3, 2)


def test_window_rule_position_range():
    with pytest.raises(ValueError):
        tuck_site_valid(dirs("TT"), 3, 1)
    with pytest.raises(ValueError):
        tuck_site_valid(dirs("TT"), 0, 1)


def test_parity():
    assert tuck_parity_ok(11, 7)
    assert not tuck_parity_ok(3, 2)
    assert tuck_parity_ok(4, 4)


def test_tuck_sites_dual_depth():
    sites = tuck_sites(dirs("TWTT"))
    assert sites == [(4, (1, 2))]


def test_tuck_sites_eldredge_and_trinity():
    eldredge = [(p, d) for p, d in tuck_sites(dirs("TTTWWTTTTWW")) if 1 in d]
    assert [p for p, _ in eldredge] == [3, 5, 7, 9, 11]
    trinity = [(p, d) for p, d in tuck_sites(dirs("TWWWTTTTT")) if 1 in d]
    assert [p for p, _ in trinity] == [3, 7, 9]


def test_tuck_sites_read_letters_as_their_windings():
    assert tuck_site_valid("WW", 2, 1)
    assert tuck_sites("WWTTWW") == [(2, (1,)), (4, (1,)), (6, (1, 3))]
    for n in range(1, 11):
        for combo in itertools.product("TW", repeat=n):
            text = "".join(combo)
            assert tuck_sites(text) == tuck_sites(parse_tw(text).windings), text


def test_tuck_sites_hidden_relaxation_never_shrinks():
    for n in range(2, 9):
        for combo in itertools.product("TW", repeat=n):
            w = dirs("".join(combo))
            strict = {p: set(d) for p, d in tuck_sites(w)}
            relaxed = {p: set(d) for p, d in tuck_sites(w, ValidityOptions(allow_hidden_tucks=True))}
            for position, depths in strict.items():
                assert depths <= relaxed.get(position, set())


def test_validate_named_knots():
    assert validate(parse_tw("TWWWTTTUTTU")).valid
    assert validate(parse_tw("TTTWWTTUTTWWU")).valid
    assert validate(parse_tw("TWTTUU")).valid


def test_validate_rejects_back_tuck():
    report = validate(parse_tw("TTUWT" + "TU"))  # internal tuck at odd remainder
    assert not report.valid
    assert any(v.rule == "T3" for v in report.violations)


def test_validate_rejects_bad_window():
    report = validate(parse_tw("TWU"))
    assert not report.valid
    assert any(v.rule == "window" for v in report.violations)


def test_validate_rejects_stacked_depth1_tuck():
    # A depth-1 tuck needs a bare pair just before it; at the point of
    # the tuck before it there is none.
    for text in ("TTU'U", "TTWWU'U"):
        report = validate(parse_tw(text))
        assert not report.valid, text
        assert [v.rule for v in report.violations] == ["window"]
    assert validate(parse_tw("TWTTU'UU")).valid  # a deeper tuck may close there


def test_validate_requires_final_tuck():
    report = validate(parse_tw("TT"))
    assert not report.valid
    assert any(v.rule == "T4" for v in report.violations)


def test_validate_final_center_exception():
    opts = ValidityOptions(allow_final_center_no_tuck=True)
    assert validate(parse_tw("WW"), opts).valid  # ends in the center
    assert not validate(parse_tw("TT"), opts).valid


def test_validate_depth_and_move_caps():
    assert not validate(parse_tw("TWTTUU"), ValidityOptions(max_tuck_depth=1)).valid
    long_knot = parse_tw("TT" * 7 + "U")
    assert not validate(long_knot).valid  # 15 moves > default cap
    assert validate(long_knot, ValidityOptions(max_moves=None)).valid


def test_validate_needs_enough_room():
    report = validate(parse_tw("TTUU"), ValidityOptions(max_moves=None))
    assert any(v.rule == "T5" for v in report.violations)


def test_validate_monotone_under_relaxation():
    for n in range(2, 8):
        for combo in itertools.product("TW", repeat=n):
            text = "".join(combo) + "U"
            knot = parse_tw(text)
            strict = validate(knot)
            relaxed = validate(knot, ValidityOptions(allow_hidden_tucks=True))
            if strict.valid:
                assert relaxed.valid


def test_validate_clr_axioms():
    report = validate_clr(parse_clr("LL"))
    assert not report.valid
    assert report.violations[0].rule == "T1"

    report = validate_clr(parse_clr("LoCoRU"))
    assert not report.valid
    assert report.violations[0].rule == "T2"

    assert validate_clr(parse_clr("LCRU")).valid


@pytest.mark.parametrize("text, message", [
    ("", "empty region word has no start region"),
    ("LU", "tuck before any winding"),
])
def test_validate_clr_refuses_a_word_with_no_winding_form(text, message):
    with pytest.raises(NotationError, match=f"^{message}$"):
        validate_clr(parse_clr(text))


def test_validate_clr_marks_against_forced_orientations():
    assert validate_clr(parse_clr("LoCiRoU")).valid
    # A wrong mark just before the tuck breaks T3; elsewhere T2.
    report = validate_clr(parse_clr("LoCiRiU"))
    assert report.violations[0].rule == "T3"
    report = validate_clr(parse_clr("LiCiRoU"))
    assert report.violations[0].rule == "T2"
    # Without a tuck, marks are only checked against each other:
    # Li C Ri is mutually consistent across the unmarked center visit.
    report = validate_clr(parse_clr("LiCRi"))
    assert all(v.rule != "T2" for v in report.violations)


def test_validate_clr_worked_example_annotations():
    word = parse_clr("RiCoLiCoRiCoLiCoRiCoLiRoUCiRoCiLoU")
    assert validate_clr(word, ValidityOptions(max_moves=None)).valid


def test_final_tuck_follows_outward_move():
    # With orientations inferred, the visit before each tuck is outward.
    from tieknot.notation import Orientation, Tuck, infer_orientations, tw_to_clr
    from tieknot.enumeration import single_tuck_knots

    for text in single_tuck_knots(9):
        word = infer_orientations(tw_to_clr(parse_tw(text)))
        previous = None
        for item in word.items:
            if isinstance(item, Tuck):
                assert previous is Orientation.OUT
            else:
                previous = item.orientation


# -- validate's tuck verdicts against the standalone rules --------------------
# validate applies the window and parity rules inline; tuck_site_valid and
# tuck_parity_ok are their definitions.


def _verdicts(knot, rule, hidden):
    opts = ValidityOptions(require_final_tuck=False, allow_hidden_tucks=hidden, max_moves=None)
    return [(v.position, v.message) for v in validate(knot, opts).violations if v.rule == rule]


def _assert_verdicts_match_the_rules(knot):
    windings, n, tucks = knot.windings, knot.winding_count, knot.tucks
    roomy = [(p, d) for p, d in tucks if p >= 2 * d]
    # A depth-1 tuck at the point of the tuck before it has no bare pair.
    stacked = {i for i in range(1, len(tucks)) if tucks[i][1] == 1 and tucks[i][0] == tucks[i - 1][0]}
    assert _verdicts(knot, RULE_TUCK_ROOM, True) == [
        (p, f"depth-{d} tuck needs {2 * d} preceding windings, found {p}")
        for p, d in tucks if p < 2 * d
    ]
    window = [
        (p, f"window does not admit a depth-{d} tuck after winding {p}")
        for i, (p, d) in enumerate(tucks)
        if p >= 2 * d and (i in stacked or not tuck_site_valid(windings, p, d))
    ]
    assert _verdicts(knot, RULE_WINDOW, True) == window
    assert _verdicts(knot, RULE_WINDOW, False) == window
    assert _verdicts(knot, RULE_FRONT_TUCK, True) == []
    assert [p for p, _ in _verdicts(knot, RULE_FRONT_TUCK, False)] == [
        p for p, _ in roomy if not tuck_parity_ok(n, p)
    ]


def _every_tuck_after(windings):
    """A word with tucks of every depth from 1 to one past the room, after every winding."""
    items = []
    for position, letter in enumerate(windings, start=1):
        items.append(WindDir(letter))
        items.extend(Tuck(depth) for depth in range(1, position // 2 + 2))
    return KnotWord(items=tuple(items))


def test_validate_tuck_verdicts_match_the_rules_to_eight_windings():
    for n in range(1, 9):
        for letters in itertools.product("TW", repeat=n):
            _assert_verdicts_match_the_rules(_every_tuck_after(letters))


@given(
    st.text("TW", min_size=1, max_size=40),
    st.lists(st.tuples(st.integers(0, 39), st.integers(1, 21)), max_size=12),
)
def test_validate_tuck_verdicts_match_the_rules_on_long_words(windings, tucks):
    after = {}
    for offset, depth in tucks:
        after.setdefault(1 + offset % len(windings), []).append(Tuck(depth))
    items = []
    for position, letter in enumerate(windings, start=1):
        items.append(WindDir(letter))
        items.extend(after.get(position, ()))
    _assert_verdicts_match_the_rules(KnotWord(items=tuple(items)))


# -- the region walks, against the old compositions ----------------------------
# validate_clr and infer_orientations each walk a region word once.  The
# referee checks the marks against orientations forced visit by visit, then
# validates the winding word that clr_to_tw converts, as validate_clr did
# before it read its own visits; an oriented word's text must be the text of
# its items.

_OPTION_SETS = (
    ValidityOptions(allow_hidden_tucks=True, max_moves=None),
    ValidityOptions(require_final_tuck=False, max_tuck_depth=1, max_moves=9),
)
_CENTER_ENDING = ValidityOptions(allow_final_center_no_tuck=True)


def _forced_by_visits(word):
    """Orientation of every visit by item index: "out" on the visit before the
    last tuck, alternating away from it; None for a word with no tuck."""
    tucks = [i for i, item in enumerate(word.items) if isinstance(item, Tuck)]
    if not tucks:
        return None
    visits = [i for i, item in enumerate(word.items) if isinstance(item, Visit)]
    anchor = max(rank for rank, i in enumerate(visits) if i < tucks[-1])
    return {
        i: Orientation.OUT if (anchor - rank) % 2 == 0 else Orientation.IN
        for rank, i in enumerate(visits)
    }


def _mark_violations(items, visits, forced):
    """Each mark against ``forced`` (T3 just before a tuck, T2 elsewhere), or
    without a tuck, each mark against the mark before it."""
    violations = []
    if forced is None:
        marked = [(rank, i, v.orientation) for rank, (i, v) in enumerate(visits) if v.orientation]
        for (rank0, _, before), (rank, i, mark) in zip(marked, marked[1:]):
            if (mark == before) == ((rank - rank0) % 2 == 1):
                violations.append(Violation("T2", i, "moves do not alternate direction"))
        return violations
    for i, visit in visits:
        if visit.orientation not in (None, forced[i]):
            if i + 1 < len(items) and isinstance(items[i + 1], Tuck):
                violations.append(Violation("T3", i, "the move before a tuck must pass in front of the knot"))
            else:
                violations.append(Violation("T2", i, "moves do not alternate direction"))
    return violations


def _validate_clr_by_composition(word, opts, forced):
    """T1 between consecutive visits, the marks against ``forced``, and if all
    hold, ``validate(clr_to_tw(word))``."""
    items = word.items
    visits = [(i, item) for i, item in enumerate(items) if isinstance(item, Visit)]
    violations = [
        Violation("T1", i, f"region {visit.region.value} repeats")
        for (_, before), (i, visit) in zip(visits, visits[1:])
        if visit.region == before.region
    ]
    violations += _mark_violations(items, visits, forced)
    if violations:
        return ValidityReport(valid=False, violations=tuple(violations))
    return validate(clr_to_tw(word), opts)


def _assert_validate_clr_matches_the_composition(word, opts=DEFAULT_OPTIONS, forced=None):
    """``forced`` may be given for a word with the visits and tucks it was found for."""
    forced = forced or _forced_by_visits(word)
    assert validate_clr(word, opts) == _validate_clr_by_composition(word, opts, forced), (
        word.serialize(), opts)


def _flip(visit):
    return Visit(visit.region, Orientation.IN if visit.orientation is Orientation.OUT else Orientation.OUT)


def test_region_walks_match_their_referees_to_13_moves():
    texts = {text for members in full_language(9).values() for text in members}
    texts.update(single_tuck_knots(12))
    for text in sorted(texts):
        for start in (Region.LEFT, Region.RIGHT):  # the canonical start and its mirror's
            word = tw_to_clr(parse_tw(text, start))
            oriented = infer_orientations(word)
            assert oriented.serialize() == RegionWord(oriented.items).serialize()
            forced = _forced_by_visits(word)
            assert [(item.region, item.orientation) for item in oriented.items if isinstance(item, Visit)] == [
                (word.items[i].region, forced[i]) for i in sorted(forced)
            ]
            # The oriented word's marks are the forced ones, so the composition
            # gives it the plain word's report.
            expected = _validate_clr_by_composition(word, DEFAULT_OPTIONS, forced)
            assert validate_clr(word) == validate_clr(oriented) == expected, text


def test_validate_clr_matches_the_composition_on_flips_and_repeats_to_nine_windings():
    words = (
        tw_to_clr(parse_tw(text, start))
        for members in full_language(9).values()
        for text in members
        for start in (Region.LEFT, Region.RIGHT)
    )
    for word in words:
        forced = _forced_by_visits(word)
        for opts in _OPTION_SETS:
            _assert_validate_clr_matches_the_composition(word, opts, forced)
        items = infer_orientations(word).items
        # Each one-mark flip breaks T2 or T3 and nothing else.  The marks hang
        # on the order of visits and tucks alone, which L and R words share.
        for i, item in enumerate(items if items[0].region is Region.LEFT else ()):
            if isinstance(item, Visit):
                flipped = RegionWord(items[:i] + (_flip(item),) + items[i + 1:])
                _assert_validate_clr_matches_the_composition(flipped, forced=forced)
        # A repeated start visit breaks T1 and shifts every forced mark after it.
        _assert_validate_clr_matches_the_composition(RegionWord(items[:1] + items))
        # Without its last tuck the word may end in the center; its marks then
        # only need to alternate among themselves if no tuck is left.
        _assert_validate_clr_matches_the_composition(RegionWord(items[:-1]), _CENTER_ENDING)
        _assert_validate_clr_matches_the_composition(RegionWord(word.items[:-1]), _CENTER_ENDING)


def test_a_lone_center_visit_does_not_end_a_knot():
    # The center ending needs a winding into the center, not just a start there.
    report = validate_clr(parse_clr("C"), _CENTER_ENDING)
    assert report == validate(parse_tw("", Region.CENTER), _CENTER_ENDING)
    assert [v.rule for v in report.violations] == ["T4"]
    assert validate_clr(parse_clr("LC"), _CENTER_ENDING).valid


@pytest.mark.parametrize(
    "valid, violations", [(True, (Violation("T4", 3, "x"),)), (False, ())], ids=["valid-with-one", "invalid-with-none"]
)
def test_a_report_that_contradicts_itself_is_refused(valid, violations):
    with pytest.raises(ValueError, match=rf"valid={valid} with {len(violations)} violation\(s\)"):
        ValidityReport(valid=valid, violations=violations)
