"""Acceptance suite: every published count, table and example, exact.

Each test prints one PASS line (run with ``pytest -s`` to see them all);
any failure is a hard test failure -- all comparisons are exact integer
or byte equality, no tolerances.  The arbitrary-depth cross-check runs
to 13 windings.
"""

from dataclasses import astuple

from tieknot import catalog, enumeration, genfunc, grammars
from tieknot.notation import (
    Region,
    infer_orientations,
    clr_to_tw,
    mirror,
    parse_clr,
    parse_tw,
    tw_to_clr,
)


def ok(message):
    print(f"PASS {message}")


def test_criterion_1_classical_counts():
    expected = [1, 1, 3, 5, 11, 21, 43]
    series = grammars.count_by_size(grammars.fm_grammar(), 9)
    assert list(series)[3:] == expected

    oracle = list(enumeration.fm_knots(8))
    by_size = {}
    for text in oracle:
        size = sum(1 for c in text if c in "LCR")
        by_size[size] = by_size.get(size, 0) + 1
    assert [by_size.get(s, 0) for s in range(3, 10)] == expected

    gf = genfunc.expand(genfunc.parse_rational("z^3/((1+z)(1-2z))"), 10)
    assert list(gf)[3:] == expected

    assert series.total() == len(oracle) == 85
    ok("criterion 1: classical counts 1,1,3,5,11,21,43 (total 85) from grammar, oracle and closed form")


SINGLE_EXPECTED = [2, 4, 12, 24, 72, 144, 432, 864, 2592, 5184, 15552]


def test_criterion_2_single_tuck_counts():
    series = grammars.count_by_size(grammars.single_tuck_tw_grammar(), 13)
    assert list(series)[3:] == SINGLE_EXPECTED
    assert series.total() == 24882

    oracle = {}
    for text in enumeration.single_tuck_knots(12):
        n = text.count("T") + text.count("W")
        oracle[n + 1] = oracle.get(n + 1, 0) + 1
    assert [oracle[m] for m in range(3, 14)] == SINGLE_EXPECTED

    # The widely printed table shows 4,146 knots at winding length 12;
    # that cell disagrees with the series, with the direct enumeration,
    # and with the 24,882 total, all of which give 5,184.
    assert series[12] == 5184 != 4146
    assert sum(SINGLE_EXPECTED) - 5184 + 4146 != 24882
    ok("criterion 2: single-tuck counts per bucket, total 24,882; the 4,146 table cell is flagged (5,184 is consistent)")


FULL_EXPECTED = [2, 4, 20, 40, 192, 384, 1896, 3792, 19320, 38640, 202392]


def test_criterion_3_full_counts(full_members_12, full_oracle_12):
    series = grammars.count_by_size(grammars.full_grammar(), 12)
    assert list(series)[2:] == FULL_EXPECTED
    assert series.total() == 266682

    for n in range(2, 13):
        assert len(full_oracle_12[n]) == series[n]
    assert set(full_members_12) == {m for ms in full_oracle_12.values() for m in ms}
    ok("criterion 3: arbitrary-depth counts per bucket, total 266,682; oracle and grammar agree exactly")


def test_criterion_3_extended_to_13_windings():
    series = grammars.count_by_size(grammars.full_grammar(), 13)
    assert series[13] == 404784
    members = grammars.generate_with_sizes(grammars.full_grammar(), 13)
    structural = enumeration.full_language(13)
    assert len(structural[13]) == 404784
    assert set(members) == {m for ms in structural.values() for m in ms}
    ok("criterion 3 (extended): 13-winding bucket 404,784; oracle and grammar agree exactly")


THE_TWENTY = [
    "TTTTU", "TTWWU", "TWTTU", "TWWWU",
    "WTTTU", "WTWWU", "WWTTU", "WWWWU",
    "TTUTTU", "TTUWWU", "WWUTTU", "WWUWWU",
    "TTTWUU", "TTWTUU", "TWTTUU", "TWTTU'UU",
    "WTWWUU", "WTWWU'UU", "WWTWUU", "WWWTUU",
]


def test_criterion_4_the_twenty_strings(full_members_12):
    four = {m for m, s in full_members_12.items() if s == 4}
    assert four == set(THE_TWENTY)
    ok("criterion 4: the 20 four-winding knots match byte for byte")


def test_criterion_5_winding_patterns(census_12, listed_classes):
    listed = listed_classes(12)
    columns = {
        Region.LEFT: sum(row.left_windings for row in census_12),
        Region.RIGHT: sum(row.right_windings for row in census_12),
        Region.CENTER: sum(row.center_windings for row in census_12),
    }
    for patterns in ({r: len(v) for r, v in listed.items()}, columns):
        assert patterns[Region.LEFT] == 1364
        assert patterns[Region.RIGHT] == 1365
        assert patterns[Region.CENTER] == 1365
        assert sum(patterns.values()) == 4094
    assert sum(len(v) for v in listed_classes(11).values()) == 2046
    assert sum(sum(astuple(row)[2:5]) for row in census_12[:-1]) == 2046
    for column in ("left_knots", "right_knots", "center_knots"):
        assert sum(getattr(row, column) for row in census_12) == 8294
    ok("criterion 5: winding patterns 1,364/1,365/1,365 (4,094; 2,046 to 12 moves); 8,294 knots per region")


PER_REGION_EXPECTED = {
    Region.RIGHT: [1, 1, 4, 8, 24, 48, 144, 288, 864, 1728, 5184],
    Region.CENTER: [1, 1, 4, 8, 24, 48, 144, 288, 864, 1728, 5184],
    Region.LEFT: [0, 2, 4, 8, 24, 48, 144, 288, 864, 1728, 5184],
}


def test_criterion_6_per_region_series():
    for region, expected in PER_REGION_EXPECTED.items():
        series = grammars.count_by_size(grammars.single_tuck_clr_grammar(region), 13)
        assert list(series)[3:] == expected, region

    # R- and C-final closed forms expand to their printed series.
    printed_rc = genfunc.expand(
        genfunc.parse_rational("z^3(2z^3-2z^2+z+1)/(1-6z^2)"), 14
    )
    assert list(printed_rc)[3:] == PER_REGION_EXPECTED[Region.RIGHT]

    # The L-final closed form as printed expands with flipped signs;
    # the printed coefficients are what the enumeration confirms.
    printed_form = genfunc.expand(
        genfunc.parse_rational("2z^4(2z^2-2z-1)/(1-6z^2)"), 14
    )
    left_series = genfunc.Series((0, 0, 0) + tuple(PER_REGION_EXPECTED[Region.LEFT]))
    mismatch = genfunc.compare(printed_form, left_series)
    assert mismatch == genfunc.Mismatch(4, -2, 2)
    refit = genfunc.fit_recurrence(left_series, 4)
    assert genfunc.compare(genfunc.expand(refit, 14), left_series) is None
    ok(
        "criterion 6: per-region series match through 13 moves; "
        f"left-final closed form recorded as mismatching at z^4 ({mismatch.left} vs {mismatch.right}), "
        f"refitted form {refit}"
    )


def test_criterion_7_conversions():
    assert tw_to_clr(parse_tw("TTTWWTTUTTWWU")).serialize() == "LCRLRCRLUCRCLU"
    assert tw_to_clr(parse_tw("TWWWTTTUTTU")).serialize() == "LCLRCRLCURLU"
    assert clr_to_tw(parse_clr("LCRLRCRLUCRCLU")).serialize() == "TTTWWTTUTTWWU"
    assert clr_to_tw(parse_clr("LCLRCRLCURLU")).serialize() == "TWWWTTTUTTU"
    annotated = infer_orientations(parse_clr("RCLCRCLCRCLRUCRCLU"))
    assert annotated.serialize() == "RiCoLiCoRiCoLiCoRiCoLiRoUCiRoCiLoU"
    ok("criterion 7: Eldredge and Trinity conversions and the annotated worked example reproduce exactly")


def test_criterion_8_naming_and_aesthetics():
    eldredge = parse_tw("TTTWWTTUTTWWU")
    trinity = parse_tw("TWWWTTTUTTU")
    assert catalog.name_of(eldredge).tuck_bits == 4
    assert catalog.name_of(trinity).tuck_bits == 2
    assert catalog.balance(eldredge) == 3
    assert catalog.symmetry(eldredge) == 0
    assert catalog.balance(trinity) == 2
    assert catalog.symmetry(trinity) == 1
    ok("criterion 8: Eldredge .4 / Trinity .2; balance 3/2, symmetry 0/1")


def test_criterion_9_property_suites(single_tuck_members_13, full_members_12, full_oracle_12):
    # Oracle/grammar set equality per family.
    report = enumeration.cross_check(max_moves=13, full_max_windings=8)
    assert report.ok, str(report)
    assert set(full_members_12) == {m for ms in full_oracle_12.values() for m in ms}

    # Automaton agreement with the grammar for all short strings.
    automaton = grammars.single_tuck_automaton()
    import itertools

    members = {m for m in single_tuck_members_13 if len(m) <= 9}
    accepted = set()
    for length in range(10):
        for combo in itertools.product("TWU", repeat=length):
            text = "".join(combo)
            if automaton.accepts(text):
                accepted.add(text)
    assert accepted == members

    # Mirror involution and the right/center bijection at every bucket.
    swap = str.maketrans("TW", "WT")
    by_region = {Region.LEFT: set(), Region.RIGHT: set(), Region.CENTER: set()}
    for text, moves in single_tuck_members_13.items():
        knot = parse_tw(text)
        assert mirror(mirror(knot)) == knot
        by_region[enumeration.final_region_of(text)].add((moves, text))
    assert {(m, t.translate(swap)) for m, t in by_region[Region.CENTER]} == by_region[Region.RIGHT]

    # Round trips on every enumerated knot, both notations.  Arbitrary-
    # depth members are taken in canonical apostrophe placement, which
    # the cross-check above verified to be lossless.
    for text in single_tuck_members_13:
        knot = parse_tw(text)
        assert parse_tw(knot.serialize()) == knot
        assert clr_to_tw(tw_to_clr(knot)) == knot
    from tieknot.notation import canonicalize_tw

    canonical = {canonicalize_tw(text) for text in full_members_12}
    assert len(canonical) == len(full_members_12)
    for text in canonical:
        knot = parse_tw(text)
        assert knot.serialize() == text
        assert clr_to_tw(tw_to_clr(knot)) == knot

    # Depth-1 window rule is exactly "last two windings equal".
    from tieknot.notation import WindDir
    from tieknot.validity import tuck_site_valid

    for a in "TW":
        for b in "TW":
            window = [WindDir(a), WindDir(b)]
            assert tuck_site_valid(window, 2, 1) == (a == b)
    ok("criterion 9: oracle equality, automaton agreement, mirror bijections, round trips, depth-1 window rule")


HIDDEN_EXPECTED = [2, 6, 18, 54, 162, 486, 1458, 4374, 13122, 39366, 118098]


def test_criterion_10_hidden_tuck_series():
    counts = enumeration.hidden_tuck_counts(12)
    assert [counts[n] for n in range(2, 13)] == HIDDEN_EXPECTED
    assert sum(counts.values()) == 177146
    ok(
        "criterion 10 (stretch): dropping the tuck parity rule reproduces "
        "2,6,18,...,118098 with total 177,146"
    )
