import itertools
import time
from collections import Counter
from dataclasses import astuple, replace

import pytest

from tieknot import enumeration as E
from tieknot import grammars as G
from tieknot import notation as N
from tieknot.cli import main
from tieknot.notation import Region, parse_tw, sort_key
from tieknot.validity import ValidityOptions, tuck_sites, validate


def test_oracle_smallest_single_tuck():
    knots = E.oracle_enumerate(2, ValidityOptions(max_tuck_depth=1))
    assert [k.serialize() for k in knots] == ["TTU", "WWU"]


def test_oracle_twenty_at_four_windings():
    knots = E.oracle_enumerate(4)
    four = {k.serialize() for k in knots if k.winding_count == 4}
    assert len(four) == 20
    assert "TWTTU'UU" in four and "TTWTUU" in four


def test_oracle_empty():
    assert list(E.oracle_enumerate(0)) == []
    assert list(E.oracle_enumerate(1)) == []


@pytest.mark.parametrize("opts", [
    ValidityOptions(require_final_tuck=False),
    ValidityOptions(allow_final_center_no_tuck=True),
    ValidityOptions(max_tuck_depth=2),
    ValidityOptions(allow_hidden_tucks=True),
], ids=["no-final-tuck", "final-center", "depth-2", "hidden-any-depth"])
def test_oracle_refuses_what_it_cannot_enumerate(opts):
    with pytest.raises(NotImplementedError):
        list(E.oracle_enumerate(4, opts))


def test_oracle_caps_windings_one_below_the_move_cap():
    moves = Counter(k.winding_count + 1 for k in E.oracle_enumerate(14))
    assert max(moves) == 13 and sum(moves.values()) == 266_682
    capped = [k.serialize() for k in E.oracle_enumerate(14, ValidityOptions(max_moves=8))]
    assert capped == [k.serialize() for k in E.oracle_enumerate(7, ValidityOptions(max_moves=None))]
    assert list(E.oracle_enumerate(14, ValidityOptions(max_moves=2))) == []


@pytest.mark.parametrize("hidden, listed", [(False, 24_882), (True, 177_146)], ids=["strict", "hidden"])
def test_oracle_lists_only_knots_its_options_validate(hidden, listed):
    opts = ValidityOptions(max_tuck_depth=1, allow_hidden_tucks=hidden)
    verdicts = Counter(validate(k, opts).valid for k in E.oracle_enumerate(14, opts))
    assert verdicts == {True: listed}


def test_oracle_hidden_tucks_are_the_grammar_in_text_order():
    opts = ValidityOptions(max_tuck_depth=1, allow_hidden_tucks=True)
    texts = [k.serialize() for k in E.oracle_enumerate(7, opts)]
    assert texts == G.generate(G.hidden_tuck_grammar(), 7)
    assert len(texts) == sum(E.hidden_tuck_counts(7).values()) == 728


def test_oracle_is_deterministic_and_duplicate_free():
    knots = [k.serialize() for k in E.oracle_enumerate(6)]
    assert knots == sorted(knots, key=lambda t: (sum(c in "TW" for c in t), sort_key(t)))
    assert len(knots) == len(set(knots))


def test_every_single_tuck_knot_validates():
    for text in E.single_tuck_knots(9):
        assert validate(parse_tw(text)).valid, text


def _decorations(n, sites_of):
    """Each subset of each n-winding pattern's internal sites, decorated, sorted."""
    out = []
    for w in E.pattern_texts(n):
        internal = [p for p in sites_of(w) if p < n]
        for k in range(len(internal) + 1):
            out += (E.decorate(w, set(c)) for c in itertools.combinations(internal, k))
    return sorted(out)


def test_single_tuck_buckets_decorate_every_subset_of_internal_sites():
    # Each language's definition: each subset of a pattern's internal
    # sites, decorated, once; the hidden-tuck sites are every position
    # whose depth-1 window passes, whatever its parity.  Comparing sorted
    # lists makes a duplicate fail too.
    hidden_opts = ValidityOptions(allow_hidden_tucks=True, max_tuck_depth=1)

    def hidden_sites(w):
        return [p for p, _ in tuck_sites([N.WindDir(letter) for letter in w], hidden_opts)]

    strict, hidden = {}, {}
    for text in E.single_tuck_knots(12):
        strict.setdefault(text.count("T") + text.count("W"), []).append(text)
    for text, n in G.generate_with_sizes(G.hidden_tuck_grammar(), 12).items():
        hidden.setdefault(n, []).append(text)
    for n in range(2, 13):
        assert sorted(strict[n]) == _decorations(n, E.depth1_sites), n
        assert sorted(hidden[n]) == _decorations(n, hidden_sites), n


def test_single_tuck_knots_are_the_depth_one_slice_of_the_full_language(full_oracle_12):
    # A member whose U runs are all single has only depth-1 tucks.
    shallow = {m for ms in full_oracle_12.values() for m in ms if "UU" not in m}
    assert len(shallow) == 24882
    assert set(E.single_tuck_knots(12)) == shallow


def test_winding_patterns_small(listed_classes):
    patterns = listed_classes(2)
    assert patterns[Region.RIGHT] == ["TT"]
    assert patterns[Region.CENTER] == ["WW"]
    assert patterns[Region.LEFT] == []
    (row,) = E.census(2, include_full=False)
    assert (row.left_windings, row.right_windings, row.center_windings) == (0, 1, 1)


def _census_windings(rows):
    """Winding patterns per final region, summed over census rows."""
    return {
        Region.LEFT: sum(r.left_windings for r in rows),
        Region.RIGHT: sum(r.right_windings for r in rows),
        Region.CENTER: sum(r.center_windings for r in rows),
    }


def test_winding_pattern_totals(listed_classes):
    for counts in ({r: len(v) for r, v in listed_classes(12).items()},
                   _census_windings(E.census(12, include_full=False))):
        assert counts[Region.LEFT] == 1364
        assert counts[Region.RIGHT] == 1365
        assert counts[Region.CENTER] == 1365
    for counts in ({r: len(v) for r, v in listed_classes(11).items()},
                   _census_windings(E.census(11, include_full=False))):
        assert sum(counts.values()) == 2046
        assert all(count == 682 for count in counts.values())


def test_winding_pattern_counts_run_through_powers_of_two(listed_classes):
    by_length = {}
    for strings in listed_classes(10).values():
        for w in strings:
            by_length[len(w)] = by_length.get(len(w), 0) + 1
    for row in E.census(10, include_full=False):
        n = row.winding_count
        assert by_length[n] == 2 ** (n - 1)
        assert row.left_windings + row.right_windings + row.center_windings == 2 ** (n - 1)


def test_mirror_bijection_on_patterns(listed_classes):
    # Swapping T and W maps center-final patterns onto right-final ones
    # and left-final patterns onto themselves, preserving length.
    patterns = listed_classes(13)
    swap = str.maketrans("TW", "WT")
    center = set(patterns[Region.CENTER])
    right = set(patterns[Region.RIGHT])
    left = set(patterns[Region.LEFT])
    assert {w.translate(swap) for w in center} == right
    assert {w.translate(swap) for w in left} == left


def test_mirror_bijection_on_single_tuck_knots():
    swap = str.maketrans("TW", "WT")
    by_region = {Region.LEFT: set(), Region.RIGHT: set(), Region.CENTER: set()}
    for text in E.single_tuck_knots(8):
        by_region[E.final_region_of(text)].add(text)
    assert {t.translate(swap) for t in by_region[Region.CENTER]} == by_region[Region.RIGHT]
    assert {t.translate(swap) for t in by_region[Region.LEFT]} == by_region[Region.LEFT]


def test_census_row_values(census_12):
    first = census_12[0]
    assert (first.winding_count, first.move_count) == (2, 3)
    assert (first.left_windings, first.right_windings, first.center_windings) == (0, 1, 1)
    by_moves = {row.move_count: row for row in census_12}
    assert by_moves[13].single_tuck_knots == 15552
    assert by_moves[13].total_knots == 202392
    assert by_moves[12].single_tuck_knots == 5184
    assert sum(r.single_tuck_knots for r in census_12) == 24882
    assert sum(r.total_knots for r in census_12) == 266682
    for column in ("left_knots", "right_knots", "center_knots"):
        assert sum(getattr(r, column) for r in census_12) == 8294
    for row in census_12:
        assert row.single_tuck_knots == row.left_knots + row.right_knots + row.center_knots


def test_census_csv_shape(census_12):
    line = census_12[0].csv_line()
    assert line.count(",") == E.CensusRow.CSV_HEADER.count(",")
    assert set(census_12[0].to_dict()) == set(E.CensusRow.CSV_HEADER.split(","))


def _listed_census(listed_classes, max_windings):
    """Referee census by listing: each listed pattern adds 2 to the power
    of its internal depth-1 sites to its region's knot column."""
    rows = {n: {"windings": Counter(), "knots": Counter()} for n in range(2, max_windings + 1)}
    for region, patterns in listed_classes(max_windings).items():
        for w in patterns:
            n = len(w)
            rows[n]["windings"][region] += 1
            rows[n]["knots"][region] += 2 ** len([p for p in E.depth1_sites(w) if p < n])
    regions = (Region.LEFT, Region.RIGHT, Region.CENTER)
    return [
        (n, n + 1, *(row["windings"][r] for r in regions), *(row["knots"][r] for r in regions),
         sum(row["knots"].values()))
        for n, row in rows.items()
    ]


def test_table_census_matches_listed_census_to_16_windings(listed_classes):
    listed = _listed_census(listed_classes, 16)
    for include_full in (False, True):
        rows = E.census(16, include_full=include_full)
        assert [astuple(row)[:-1] for row in rows] == listed
    for row in rows:  # the windings columns are the pattern counts, by turn
        assert (row.left_windings, row.right_windings, row.center_windings) == tuple(
            E.pattern_count(row.winding_count, E.TURN_OF_REGION[region])
            for region in (Region.LEFT, Region.RIGHT, Region.CENTER)
        )
    totals = G.count_by_size(G.full_grammar(), 16)
    assert [row.total_knots for row in rows] == [totals[n] for n in range(2, 17)]
    for n in (2, 3, 5, 11, 12):
        assert E.census(n) == rows[: n - 1]
        assert E.census(n, include_full=False) == [replace(r, total_knots=0) for r in rows[: n - 1]]
    assert E.census(1) == E.census(0) == []


def test_pattern_counts_follow_the_row_recurrence_to_2000_windings():
    # A T in front of a pattern turns it by 1 more, a W by 1 less; the
    # patterns below m + 1 windings are those below m and those of m.
    rows = [
        (tuple(E.pattern_count(m, t) for t in range(3)),
         tuple(E.patterns_below(m, t) for t in range(3)))
        for m in range(2, 2001)
    ]
    assert rows[0] == ((0, 1, 1), (0, 0, 0))  # TT turns by 2, WW by -2 = 1
    for ((a, b, c), (x, y, z)), row in zip(rows, rows[1:]):
        assert row == ((b + c, c + a, a + b), (x + a, y + b, z + c))
    assert E.pattern_count(9, -1) == E.pattern_count(9, 2)  # turns are taken mod 3
    assert E.patterns_below(9, 4) == E.patterns_below(9, 1)


def test_full_language_matches_grammar(full_members_12, full_oracle_12):
    flat = {m for members in full_oracle_12.values() for m in members}
    assert flat == set(full_members_12)
    series = G.count_by_size(G.full_grammar(), 12)
    for n, members in full_oracle_12.items():
        assert len(members) == series[n]


def test_region_final_full_grammars_split_the_oracle(full_oracle_12):
    series = {region: G.count_by_size(G.full_grammar(region), 12) for region in Region}
    for region in Region:
        listed = {m: n for n, ms in full_oracle_12.items() for m in ms
                  if E.final_region_of(m) is region}
        assert G.generate_with_sizes(G.full_grammar(region), 9) == {
            m: n for m, n in listed.items() if n <= 9
        }
        assert list(series[region]) == [Counter(listed.values())[n] for n in range(13)]
    # The three region grammars partition the plain one, far past any listing.
    total = G.count_by_size(G.full_grammar(), 40)
    by_region = [G.count_by_size(G.full_grammar(region), 40) for region in Region]
    assert [sum(column) for column in zip(*by_region)] == list(total)


def test_full_language_deep_members_are_not_per_tuck_products():
    # A depth-1 tuck inside the opening pair of a depth-2 window passes
    # every per-tuck check yet is not a knot of the language.
    members = {m for ms in E.full_language(4).values() for m in ms}
    assert "TTUTWUU" not in members
    assert validate(parse_tw("TTUTWUU")).valid


def test_per_tuck_validity_boundary_of_full_language():
    # Per-tuck window checks agree with the language through 7 windings.
    # From 8 windings on, stacked towers appear whose enclosing window
    # spans more than its own U run; the language keeps them while the
    # tuck-by-tuck reading rejects them.  Both facts are pinned here.
    opts = ValidityOptions(max_moves=None)
    members = E.full_language(8)
    for n in range(2, 8):
        assert all(validate(parse_tw(m), opts).valid for m in members[n])
    diverging = [m for m in members[8] if not validate(parse_tw(m), opts).valid]
    assert len(diverging) == 140
    assert "TTTTWTWWUU'UUU" in diverging


def test_hidden_tuck_census():
    counts = E.hidden_tuck_counts(12)
    assert counts == {n: 2 * 3 ** (n - 2) for n in range(2, 13)}
    assert sum(counts.values()) == 177146


def test_hidden_tuck_grammar_is_the_validated_depth1_strings_to_8_windings():
    # Every T/W string with or without a U after each winding, judged by
    # validate with hidden tucks allowed: the grammar lists exactly the
    # valid ones.
    opts = ValidityOptions(allow_hidden_tucks=True, max_moves=None)
    valid = {
        text
        for n in range(1, 9)
        for letters in itertools.product(("T", "W", "TU", "WU"), repeat=n)
        for text in ["".join(letters)]
        if validate(parse_tw(text), opts).valid
    }
    assert len(valid) == 2186
    assert set(G.generate_with_sizes(G.hidden_tuck_grammar(), 8)) == valid


def test_region_final_hidden_tuck_grammars_split_the_plain_one():
    plain = G.generate_with_sizes(G.hidden_tuck_grammar(), 9)
    for region in Region:
        assert G.generate_with_sizes(G.hidden_tuck_grammar(region), 9) == {
            m: n for m, n in plain.items() if E.final_region_of(m) is region
        }
    total = G.count_by_size(G.hidden_tuck_grammar(), 40)
    by_region = [G.count_by_size(G.hidden_tuck_grammar(region), 40) for region in Region]
    assert [sum(column) for column in zip(*by_region)] == list(total)
    assert [total[n] for n in range(2, 41)] == [2 * 3 ** (n - 2) for n in range(2, 41)]


def test_hidden_census_extends_strict_census():
    strict = {}
    for text in E.single_tuck_knots(8):
        n = text.count("T") + text.count("W")
        strict[n] = strict.get(n, 0) + 1
    relaxed = E.hidden_tuck_counts(8)
    assert all(relaxed[n] >= strict[n] for n in strict)


def test_fm_knots_validate():
    from tieknot.notation import parse_clr
    from tieknot.validity import validate_clr

    for text in E.fm_knots(8):
        assert validate_clr(parse_clr(text)).valid, text


def test_fm_oracle_counts():
    knots = list(E.fm_knots(8))
    assert len(knots) == 85
    assert min(knots, key=len) == "LRCU"


def test_cross_check_small():
    report = E.cross_check(max_moves=9, full_max_windings=8)
    assert report.ok, str(report)
    assert "classical" in str(report)


def test_cross_check_runs_to_14_moves_and_11_windings():
    start = time.perf_counter()
    report = E.cross_check(14, 11)
    elapsed = time.perf_counter() - start
    assert report.ok, str(report)
    lines = [str(line) for line in report.lines]
    assert "single-tuck knots to 14 moves: ok (55986 members)" in lines
    assert "arbitrary-depth knots to 11 windings: ok (64290 members)" in lines
    assert elapsed < 3


def test_cross_check_builds_no_word(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cross-check built a word")

    monkeypatch.setattr(E, "parse_tw", refuse)
    monkeypatch.setattr(N, "parse_tw", refuse)
    monkeypatch.setattr(N, "tw_to_clr", refuse)
    report = E.cross_check(9, 6)
    assert report.ok, str(report)


def test_cross_check_reports_a_wrong_region_text(monkeypatch, capsys):
    batch = E.tw_texts_to_clr  # give TTU (L C R, then the tuck) a wrong last region

    def wrong_for_ttu(texts):
        texts = list(texts)
        return ["LCLU" if text == "TTU" else clr for text, clr in zip(texts, batch(texts))]

    monkeypatch.setattr(E, "tw_texts_to_clr", wrong_for_ttu)
    report = E.cross_check(9, 6)
    assert not report.ok
    broken = [str(line) for line in report.lines if not line.ok]
    assert broken == [
        "right-final single-tuck knots to 9 moves: MISMATCH "
        "(first mismatch at 3 moves: 1 vs 1 members; only-left ['LCRU'] / only-right ['LCLU'])"
    ]
    assert main(["crosscheck", "--max-windings", "9", "--full-windings", "6"]) == 1
    assert capsys.readouterr().out == f"{report}\n"


def test_cross_check_reports_a_dropped_member(monkeypatch):
    members = E.single_tuck_knots
    monkeypatch.setattr(
        E, "single_tuck_knots", lambda *args: (t for t in members(*args) if t != "TTWWU")
    )
    broken = [str(line) for line in E.cross_check(9, 6).lines if not line.ok]
    assert broken == [
        "single-tuck knots to 9 moves: MISMATCH "
        "(first mismatch at 5 moves: 12 vs 11 members; only-left ['TTWWU'] / only-right [])",
        "left-final single-tuck knots to 9 moves: MISMATCH "
        "(first mismatch at 5 moves: 4 vs 3 members; only-left ['LCRCLU'] / only-right [])",
    ]


def test_cross_check_set_lines_name_the_first_bucket_that_disagrees(monkeypatch):
    # One member dropped at 7 windings and one at 8: the line names the
    # 7-winding bucket, with both sides' counts there and only its examples.
    language = E.full_language
    dropped = {7: language(8)[7][0], 8: language(8)[8][0]}

    def short(max_windings):
        return {n: [m for m in members if m != dropped.get(n)] for n, members in language(max_windings).items()}

    monkeypatch.setattr(E, "full_language", short)
    lines = [str(line) for line in E.cross_check(9, 8).lines]
    assert f"arbitrary-depth knots to 8 windings: MISMATCH " \
        f"(first mismatch at 7 windings: 384 vs 383 members; only-left [{dropped[7]!r}] / only-right [])" in lines
    # A member the oracle adds is filed by its letter count: windings here.
    monkeypatch.setattr(E, "full_language", lambda n: {**language(n), 4: [*language(n)[4], "TWTWU"]})
    assert "arbitrary-depth knots to 8 windings: MISMATCH " \
        "(first mismatch at 4 windings: 20 vs 21 members; only-left [] / only-right ['TWTWU'])" \
        in [str(line) for line in E.cross_check(9, 8).lines]


def test_cross_check_names_the_first_count_that_disagrees(monkeypatch):
    language = E.full_language

    def one_short_at_7_windings(max_windings):
        return {n: members[1:] if n == 7 else members for n, members in language(max_windings).items()}

    monkeypatch.setattr(E, "full_language", one_short_at_7_windings)
    lines = [str(line) for line in E.cross_check(9, 8).lines]
    assert "arbitrary-depth counts vs grammar series: MISMATCH " \
        "(total 2537; first mismatch at z^7: 383 != 384)" in lines
    assert "census single-tuck column vs grammar series: ok (total 690)" in lines


def test_cross_check_lists_examples_in_library_order(monkeypatch):
    members = E.single_tuck_knots
    dropped = {"TTUWWU", "TTWWU"}  # by code point U < W; in the library's order W < U
    monkeypatch.setattr(
        E, "single_tuck_knots", lambda *args: (t for t in members(*args) if t not in dropped)
    )
    broken = [str(line) for line in E.cross_check(9, 6).lines if not line.ok]
    assert broken == [
        "single-tuck knots to 9 moves: MISMATCH "
        "(first mismatch at 5 moves: 12 vs 10 members; only-left ['TTWWU', 'TTUWWU'] / only-right [])",
        "left-final single-tuck knots to 9 moves: MISMATCH "
        "(first mismatch at 5 moves: 4 vs 2 members; only-left ['LCRCLU', 'LCRUCLU'] / only-right [])",
    ]


def test_crosscheck_report_is_the_same_with_a_cold_and_a_warm_run_table(capsys):
    argv = ["crosscheck", "--max-windings", "9", "--full-windings", "6"]
    for runs in N._RUN_TABLE:
        runs.clear()
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert sum(map(len, N._RUN_TABLE)) > 0
    assert main(argv) == 0
    assert capsys.readouterr().out == cold


def test_depth1_sites_match_the_window_and_parity_rules_to_12_windings():
    from tieknot.validity import tuck_parity_ok, tuck_site_valid

    for n in range(1, 13):
        for letters in itertools.product("TW", repeat=n):
            windings = [N.WindDir(letter) for letter in letters]
            expected = [
                p for p in range(1, n + 1)
                if tuck_site_valid(windings, p, 1) and tuck_parity_ok(n, p)
            ]
            assert E.depth1_sites("".join(letters)) == expected
