import functools
import hashlib
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tieknot
from tieknot import catalog, enumeration, grammars, notation, validity
from tieknot.cli import SAMPLE_MAX_POPULATION, SERIES_MAX_ORDER, main
from test_golden import FULL_JSONL_11_SHA256


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_valid_knot(capsys):
    code, out, _ = run(capsys, "validate", "--tw", "TWWWTTTUTTU")
    assert code == 0
    assert out.strip() == "valid"


def test_validate_deep_final_tuck(capsys):
    code, out, _ = run(capsys, "validate", "--tw", "TWTTUU")
    assert code == 0


def test_validate_invalid_clr(capsys):
    code, out, _ = run(capsys, "validate", "--clr", "LL")
    assert code == 1
    assert "T1" in out


def test_validate_parse_error(capsys):
    code, _, err = run(capsys, "validate", "--tw", "TWX")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("text, message", [
    ("", "empty region word has no start region"),
    ("LU", "tuck before any winding"),
])
def test_validate_clr_without_a_winding_form_is_a_parse_error(capsys, text, message):
    # Rule T1 is about repeated regions; these words have no winding form at all.
    code, out, err = run(capsys, "validate", "--clr", text)
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


def test_usage_error(capsys):
    code, _, _ = run(capsys, "validate")
    assert code == 2


def test_convert_to_clr(capsys):
    code, out, _ = run(capsys, "convert", "--to-clr", "--start", "L", "TTTWWTTUTTWWU")
    assert code == 0
    assert out.strip() == "LCRLRCRLUCRCLU"


def test_convert_to_tw(capsys):
    code, out, _ = run(capsys, "convert", "LCLRCRLCURLU")
    assert code == 0
    assert out.strip() == "start L: TWWWTTTUTTU"


def test_convert_annotate(capsys):
    code, out, _ = run(capsys, "convert", "--annotate", "RCLCRCLCRCLRUCRCLU")
    assert code == 0
    assert out.strip() == "RiCoLiCoRiCoLiCoRiCoLiRoUCiRoCiLoU"


def test_convert_annotate_mirror_annotates_the_mirror_image(capsys):
    _, mirrored, _ = run(capsys, "convert", "--mirror", "LCRU")
    assert mirrored.strip() == "start R: WWU"  # region text RCLU
    code, out, _ = run(capsys, "convert", "--annotate", "--mirror", "LCRU")
    assert (code, out.strip()) == (0, "RoCiLoU")
    assert run(capsys, "convert", "--annotate", "RCLU")[1] == out


@pytest.mark.parametrize("mirror", [[], ["--mirror"]], ids=["plain", "mirror"])
def test_convert_annotate_refuses_a_mark_the_last_tuck_contradicts(capsys, mirror):
    code, out, err = run(capsys, "convert", "--annotate", *mirror, "LiCoRiU")
    assert (code, out) == (1, "")
    assert err == "error: [T2] at 0: moves do not alternate direction\n"
    assert run(capsys, "validate", "--clr", "LiCoRiU")[1].splitlines()[1] == err[len("error: "):-1]


@pytest.mark.parametrize("mirror, annotated", [([], "LoCiRoU"), (["--mirror"], "RoCiLoU")],
                         ids=["plain", "mirror"])
def test_convert_annotate_keeps_the_marks_that_agree(capsys, mirror, annotated):
    assert run(capsys, "convert", "--annotate", *mirror, "LoCiRoU") == (0, annotated + "\n", "")
    assert run(capsys, "convert", "--annotate", *mirror, "LCiRU") == (0, annotated + "\n", "")


def test_convert_annotate_agrees_with_validate_clr_on_every_one_mark_flip_to_6_windings(capsys):
    """An annotated member is annotated again; each one-mark flip of it is
    refused with the first violation ``validate --clr`` prints for it."""
    flip = str.maketrans("io", "oi")
    members = [text for texts in enumeration.full_language(6).values() for text in texts]
    for text in members:
        for start in ("L", "R"):
            annotated = notation.infer_orientations(notation.tw_to_clr(notation.parse_tw(text, start))).serialize()
            flips = [annotated[:i] + ch.translate(flip) + annotated[i + 1:]
                     for i, ch in enumerate(annotated) if ch in "io"]
            for word in [annotated, *flips]:
                code, out, err = run(capsys, "convert", "--annotate", word)
                verdict = run(capsys, "validate", "--clr", word)[1].splitlines()
                if word == annotated:
                    assert (code, out, err) == (0, annotated + "\n", ""), word
                else:
                    assert verdict[0] == "invalid" and verdict[1][:4] in ("[T2]", "[T3]"), (word, verdict)
                    assert (code, out, err) == (1, "", f"error: {verdict[1]}\n"), word
    assert len(members) == 258


@pytest.mark.parametrize("mirror", [[], ["--mirror"]], ids=["plain", "mirror"])
@pytest.mark.parametrize("text", ["LLU", "LCLLU"])
def test_convert_annotate_refuses_a_repeated_region_as_convert_does(capsys, mirror, text):
    refusal = (2, "", "parse error: repeated region L has no winding direction\n")
    assert run(capsys, "convert", *mirror, text) == refusal
    assert run(capsys, "convert", "--annotate", *mirror, text) == refusal


@pytest.mark.parametrize("flag, violation", [
    ("--max-moves", "[cap] at 2: 3 moves exceed the cap of 0"),
    ("--max-tuck-depth", "[cap] at 2: depth-1 tuck exceeds the depth cap of 0"),
])
def test_validate_cap_of_zero_still_judges(capsys, flag, violation):
    assert run(capsys, "validate", "--tw", "TTU", flag, "0") == (1, f"invalid\n{violation}\n", "")


def test_convert_to_clr_and_annotate_are_exclusive(capsys):
    code, out, err = run(capsys, "convert", "--to-clr", "--annotate", "TTU")
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err and "Traceback" not in err


def test_convert_round_trip(capsys):
    _, clr, _ = run(capsys, "convert", "--to-clr", "TWTTU'UU")
    _, back, _ = run(capsys, "convert", clr.strip())
    assert back.strip() == "start L: TWTTU'UU"


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "fm", "--max-windings", "9", "--count")
    assert (code, out.strip()) == (0, "85")
    code, out, _ = run(capsys, "enumerate", "--class", "single", "--max-windings", "12", "--count")
    assert (code, out.strip()) == (0, "9330")


def test_enumerate_full_five_moves(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "full", "--max-windings", "5")
    lines = out.strip().splitlines()
    assert len(lines) == 26  # 2 + 4 + 20 knots of at most five moves
    assert "TWTTU'UU" in lines


def test_enumerate_final_filter(capsys):
    _, out, _ = run(capsys, "enumerate", "--class", "single", "--max-windings", "5", "--final", "L")
    lines = out.strip().splitlines()
    assert lines and all(set(line) <= set("TWU'") for line in lines)
    from tieknot.notation import final_region, parse_tw, Region

    assert all(final_region(parse_tw(line)) is Region.LEFT for line in lines)


def test_enumerate_jsonl(capsys):
    _, out, _ = run(capsys, "enumerate", "--class", "single", "--max-windings", "4", "--format", "jsonl")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records
    for record in records:
        assert set(record) >= {
            "tw", "clr", "start", "windings", "moves",
            "final_region", "tuck_bits", "name", "symmetry", "balance",
        }
    assert records[0]["tw"] == "TTU"
    assert records[0]["name"] == "R-1.0"


def test_enumerate_both_mirrors_doubles(capsys):
    _, single, _ = run(capsys, "enumerate", "--class", "single", "--max-windings", "5", "--count")
    _, both, _ = run(capsys, "enumerate", "--class", "single", "--max-windings", "5", "--count", "--both-mirrors")
    assert int(both.strip()) == 2 * int(single.strip())


def test_enumerate_windings_class(capsys):
    _, out, _ = run(capsys, "enumerate", "--class", "windings", "--max-windings", "4", "--count")
    assert out.strip() == "6"  # patterns of 2 or 3 windings: 2 + 4


def test_series_full(capsys):
    code, out, _ = run(capsys, "series", "full", "12")
    assert code == 0
    assert out.strip() == "0, 0, 2, 4, 20, 40, 192, 384, 1896, 3792, 19320, 38640, 202392"


def test_series_fm(capsys):
    _, out, _ = run(capsys, "series", "fm", "9")
    assert out.strip().endswith("1, 1, 3, 5, 11, 21, 43")


def test_series_single_leading(capsys):
    _, out, _ = run(capsys, "series", "single", "3")
    assert out.strip() == "0, 0, 0, 2"


def test_series_windings(capsys):
    _, out, _ = run(capsys, "series", "windings-l", "6")
    assert out.strip() == "0, 0, 0, 0, 2, 2, 6"


def test_name_commands(capsys):
    code, out, _ = run(capsys, "name", "--tw", "TWWWTTTUTTU")
    assert code == 0
    assert out.strip().endswith(".2")
    code, out, _ = run(capsys, "name", "--name", "Trinity")
    assert out.strip().endswith(".2")
    code, _, err = run(capsys, "name", "--tw", "TT")
    assert code == 1 and "error" in err
    for stacked in ("TTU'U", "TTWWU'U"):  # two depth-1 tucks at one point
        code, out, err = run(capsys, "name", "--tw", stacked)
        assert code == 1 and out == "" and "window" in err


def test_aesthetics_command(capsys):
    code, out, _ = run(capsys, "aesthetics", "--tw", "TTTWWTTUTTWWU")
    assert code == 0
    assert "symmetry 0" in out and "balance 3" in out and "Modern-L" in out


@pytest.mark.parametrize("tw, code", [("TWT", 0), ("WW", 0), ("TW", 1)])
def test_center_ending_gives_one_verdict_for_winding_and_region_text(capsys, tw, code):
    _, clr, _ = run(capsys, "convert", "--to-clr", tw)
    for flag, text in (("--tw", tw), ("--clr", clr.strip())):
        assert run(capsys, "validate", flag, text, "--allow-final-center")[0] == code, (flag, text)
        assert run(capsys, "validate", flag, text)[0] == 1


def test_aesthetics_non_canonical_start_is_one_line_error(capsys):
    code, out, err = run(capsys, "aesthetics", "--tw", "WWU", "--start", "R")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, env",
    [
        (["census", "--no-full"], "abc"),
        (["census", "--no-full"], "-3"),
        (["enumerate", "--class", "fm", "--count"], "abc"),
        (["crosscheck"], "abc"),
        (["crosscheck", "--max-windings", "2"], None),
        (["crosscheck", "--full-windings", "1"], None),
        (["sample", "30000"], None),
        (["sample", "-1", "--max-windings", "6"], None),
        (["series", "full", "-1"], None),
        (["series", "single", str(SERIES_MAX_ORDER + 1)], None),
        (["convert", "--start", "R", "LCRU"], None),
        (["convert", "--annotate", "--start", "R", "LCRU"], None),
        (["validate", "--clr", "LCRU", "--start", "R"], None),
        (["aesthetics", "--clr", "LCRU", "--start", "R"], None),
        (["name", "--name", "L-1.0", "--start", "R"], None),
        (["instructions", "--name", "Trinity", "--start", "L"], None),
        (["validate", "--tw", "TTU", "--max-moves", "-1"], None),
        (["validate", "--tw", "TTU", "--max-tuck-depth", "-1"], None),
    ],
    ids=[
        "env-census", "env-census-negative", "env-enumerate", "env-crosscheck",
        "crosscheck-moves-below-3", "crosscheck-windings-below-2",
        "sample-too-many", "sample-negative", "series-negative", "series-past-cap",
        "convert-region-start", "annotate-start", "validate-clr-start", "aesthetics-clr-start",
        "name-start", "instructions-name-start", "validate-negative-moves",
        "validate-negative-depth",
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", env)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in out + err
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("klass", ["fm", "windings", "full"])
@pytest.mark.parametrize("count", [False, True], ids=["listing", "count"])
def test_hidden_tucks_are_refused_outside_the_single_class(capsys, klass, count):
    argv = ["enumerate", "--class", klass, "--allow-hidden-tucks", "--max-windings", "5"]
    code, out, err = run(capsys, *argv, *(["--count"] if count else []))
    assert (code, out) == (2, "")
    assert err == "error: hidden tucks are only enumerable for the single class\n"


@pytest.mark.parametrize("command", ["name", "instructions", "aesthetics"])
@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--tw", "'", "' must sit between two U characters (at index 0)"),
        ("--tw", "UTT", "tuck before any winding (at index 0)"),
        ("--tw", "TTX", "unexpected character 'X' (at index 2)"),
        ("--clr", "LCRU'", "' must sit between two U characters (at index 4)"),
        ("--clr", "ULC", "tuck before any region visit (at index 0)"),
        ("--clr", "LLU", "repeated region L has no winding direction"),
    ],
)
def test_knot_text_that_does_not_parse_exits_2(capsys, command, flag, text, message):
    code, out, err = run(capsys, command, flag, text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@contextmanager
def _wall_bound(seconds):
    """Raise in the body, rather than hang, once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "argv, codes",
    [
        (["name", "--name", "L-1000000000000.0"], {0}),
        (["name", "--tw", "TW" * 14 + "TTU"], {0}),  # 30 windings
        (["instructions", "--name", "L-1000000000000.0"], {1}),  # over the 13-move cap
        (["name", "--name", "L-" + "7" * 4000 + ".0"], {0, 1}),
    ],
    ids=["name-large-rank", "name-30-windings", "instructions-large-rank", "name-4000-digits"],
)
def test_naming_answers_in_bounded_time(capsys, argv, codes):
    start = time.perf_counter()
    with _wall_bound(2):
        code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code in codes
    assert "Traceback" not in out + err
    assert len((out + err).splitlines()) == 1
    if code == 0:
        assert err == ""
        if argv[1] == "--name":
            assert out == argv[2] + "\n"  # the name reads back unchanged
    else:
        assert out == "" and err.startswith("error:")


def test_series_full_400_answers_in_bounded_time(capsys):
    with _wall_bound(2):
        code, out, err = run(capsys, "series", "full", "400")
    assert (code, err) == (0, "")
    assert len(out.split(", ")) == 401


def test_series_full_1000_answers_in_bounded_time(capsys):
    with _wall_bound(2):
        code, out, err = run(capsys, "series", "full", "1000")
    assert (code, err) == (0, "")
    assert len(out.split(", ")) == 1001


def test_full_right_final_count_to_1000_moves_answers_in_bounded_time(capsys, monkeypatch):
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", "1001")
    with _wall_bound(3.5):
        code, out, err = run(capsys, "enumerate", "--count", "--class", "full", "--final", "R", "--max-windings", "1000")
    assert (code, err) == (0, "")
    assert (len(out.strip()), out[:15]) == (551, "108581323268138")


def test_name_too_long_to_print_is_one_line_error(capsys):
    # About 14,400 windings: the pattern rank has more digits than an int prints.
    with _wall_bound(2):
        code, out, err = run(capsys, "name", "--tw", "TW" * 7200 + "TTU")
    assert (code, out) == (1, "")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err == "error: a name whose pattern rank has 4335 digits cannot be printed (at most 4300)\n"


def test_name_of_150000_windings_ranks_in_linear_time(capsys):
    # The rank is read off the stem as one binary number, so a pattern of
    # 150,002 windings ranks well inside the bound and reports its digits.
    with _wall_bound(2):
        code, out, err = run(capsys, "name", "--tw", "TW" * 75000 + "TTU")
    assert (code, out) == (1, "")
    assert err == "error: a name whose pattern rank has 45155 digits cannot be printed (at most 4300)\n"


def test_sample_from_more_than_2_to_the_20_knots_exits_2_in_bounded_time(capsys, monkeypatch):
    # Listing the 12,093,234 single-tuck knots to 20 moves would take minutes.
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", "20")
    with _wall_bound(2):
        code, out, err = run(capsys, "sample", "1", "--max-windings", "20")
    assert (code, out) == (2, "")
    assert err == ("error: sample draws from at most 1048576 knots, but the single-tuck "
                   "knots of at most 20 moves number 12093234\n")
    assert SAMPLE_MAX_POPULATION == 2**20


def test_census_answers_in_bounded_time_past_the_default_cap(capsys, monkeypatch):
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", "61")
    with _wall_bound(2):
        code, out, err = run(capsys, "census", "--max-windings", "61", "--format", "csv")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1 + 59  # header + windings 2..60
    assert lines[-1].startswith(f"60,61,{(2 ** 59 - 1) // 3},")


@pytest.mark.parametrize("moves", [1002, 5000])
@pytest.mark.parametrize("argv", [
    ["census"],
    ["census", "--no-full"],
    ["enumerate", "--class", "full", "--count"],
    ["enumerate", "--class", "single", "--count"],
    ["enumerate", "--class", "windings", "--count"],
], ids=["census", "census-no-full", "full-count", "single-count", "windings-count"])
def test_counts_past_the_series_bound_exit_2(capsys, monkeypatch, argv, moves):
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", "100000")
    with _wall_bound(2):
        code, out, err = run(capsys, *argv, "--max-windings", str(moves))
    assert (code, out) == (2, "")
    assert err == f"error: --max-windings must be at most {SERIES_MAX_ORDER} moves, got {moves}\n"


class _OneLineStdout(io.StringIO):
    """A pipe whose reader leaves after the first line."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError
        return super().write(text)


def test_enumerate_windings_streams_its_first_pattern(monkeypatch):
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", "40")
    stdout = _OneLineStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    with _wall_bound(2):
        code = main(["enumerate", "--class", "windings", "--max-windings", "40"])
    assert code == 0
    assert stdout.getvalue() == "TT\n"  # the first pattern by length


def test_enumerate_full_streams_its_first_record(monkeypatch):
    # Listing and parsing every knot to 15 windings first would take minutes.
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", "16")
    stdout = _OneLineStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    with _wall_bound(2):
        code = main(["enumerate", "--class", "full", "--format", "jsonl", "--max-windings", "16"])
    assert code == 0
    assert json.loads(stdout.getvalue())["tw"] == "TTU"


def _count_calls(monkeypatch, calls, module, names):
    """Count in ``calls`` each call to ``module``'s functions ``names``, wherever the package
    binds them."""
    namespaces = [tieknot, *(value for value in vars(tieknot).values() if inspect.ismodule(value))]
    for name in names:
        original = getattr(module, name)

        def counting(*args, _name=f"{module.__name__}.{name}", _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    monkeypatch.setattr(namespace, attr, counting)


def test_record_stream_validates_once_converts_twice_and_derives_nothing(capsys, monkeypatch):
    grammar_functions = [name for name, value in vars(grammars).items()
                         if inspect.isfunction(value) and value.__module__ == grammars.__name__]
    calls = Counter()
    _count_calls(monkeypatch, calls, validity, ["validate"])
    _count_calls(monkeypatch, calls, notation,
                 ["tw_to_clr", "parse_tw", "canonicalize_tw"])
    _count_calls(monkeypatch, calls, grammars, grammar_functions)
    code, out, _ = run(capsys, "enumerate", "--class", "full", "--format", "jsonl",
                       "--max-windings", "8")
    records = len(out.splitlines())
    assert (code, records) == (0, 642)  # the full language to 7 windings
    # The oracle writes canonical text, so each bucket is parsed as listed: no rewrite.
    assert calls["tieknot.notation.canonicalize_tw"] == 0
    assert calls == {"tieknot.notation.parse_tw": records, "tieknot.validity.validate": records,
                     "tieknot.notation.tw_to_clr": 2 * records}


def test_record_stream_is_unchanged_with_the_pattern_memo_cold_and_warm(capsys):
    catalog._pattern_facts.cache_clear()
    argv = ["enumerate", "--class", "full", "--format", "jsonl", "--max-windings", "11"]
    for state in ("cold", "warm"):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), state
        assert hashlib.sha256(out.encode()).hexdigest() == FULL_JSONL_11_SHA256, state
    assert catalog._pattern_facts.cache_info().hits > 0


@pytest.mark.parametrize("windings", [24, 61])
def test_enumerate_pattern_count_answers_in_bounded_time(capsys, monkeypatch, windings):
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", "61")
    with _wall_bound(2):
        code, out, err = run(capsys, "enumerate", "--class", "windings", "--count",
                             "--max-windings", str(windings))
    # A pattern of n windings is any T/W stem of n - 1 letters, repeated last letter.
    assert (code, out, err) == (0, f"{2 ** (windings - 1) - 2}\n", "")


@pytest.mark.parametrize("klass", ["windings", "fm"])
@pytest.mark.parametrize("final", [None, "L", "R", "C"])
@pytest.mark.parametrize("both_mirrors", [False, True])
def test_enumerate_pattern_count_matches_the_listing(capsys, klass, final, both_mirrors):
    argv = ["enumerate", "--class", klass, "--progress"]
    argv += ["--final", final] if final else []
    argv += ["--both-mirrors"] if both_mirrors else []
    _, listed, listed_progress = run(capsys, *argv)
    code, counted, progress = run(capsys, *argv, "--count")
    assert code == 0
    assert counted == f"{len(listed.splitlines())}\n"
    assert progress == listed_progress


@pytest.mark.parametrize("cap", range(3, 8))
@pytest.mark.parametrize("language", [["fm"], ["single"], ["full"], ["windings"], ["single", "--allow-hidden-tucks"]],
                         ids=["fm", "single", "full", "windings", "hidden"])
def test_every_class_lists_by_winding_count_then_text_order(capsys, language, cap):
    # Cap 3 lists only the two 2-winding patterns, which end in different regions.
    argv = ["enumerate", "--class", *language, "--max-windings", str(cap)]
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    windings = enumeration._letters("TW")  # a line's winding count
    assert code == 0 and lines
    assert lines == sorted(lines, key=lambda line: (windings(line), notation.sort_key(line)))
    per_count = sorted(Counter(map(windings, lines)).items())
    progress = "".join(f"[{n} windings: {knots} knots]\n" for n, knots in per_count)
    assert run(capsys, *argv, "--progress") == (0, out, progress)
    assert run(capsys, *argv, "--count", "--progress") == (0, f"{len(lines)}\n", progress)


@functools.cache
def _listing(*argv):
    """(stdout, stderr) of one CLI call, made once per test session."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(list(argv)) == 0
    return out.getvalue(), err.getvalue()


# "hidden" is the single class with --allow-hidden-tucks.
@pytest.mark.parametrize("klass, max_windings", [("single", "13"), ("full", "10"), ("hidden", "9")])
@pytest.mark.parametrize("final", [None, "L", "R", "C"])
@pytest.mark.parametrize("both_mirrors", [False, True])
@pytest.mark.parametrize("progress", [False, True])
def test_enumerate_grammar_count_matches_the_listing(
    capsys, klass, max_windings, final, both_mirrors, progress
):
    argv = ["enumerate", "--max-windings", max_windings]
    argv += ["--class", "single", "--allow-hidden-tucks"] if klass == "hidden" else ["--class", klass]
    argv += ["--final", final] if final else []
    argv += ["--both-mirrors"] if both_mirrors else []
    listed, listed_progress = _listing(*argv, "--progress")
    argv += ["--progress"] if progress else []
    code, counted, err = run(capsys, *argv, "--count")
    assert code == 0
    assert counted == f"{len(listed.splitlines())}\n"
    assert err == (listed_progress if progress else "")


@pytest.mark.parametrize("klass", ["single", "full"])
@pytest.mark.parametrize("cap", [40, 61])
def test_enumerate_grammar_count_answers_in_bounded_time(capsys, monkeypatch, klass, cap):
    rows = enumeration.census(cap - 1)
    column = "single_tuck_knots" if klass == "single" else "total_knots"
    expected = sum(getattr(row, column) for row in rows)
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", str(cap))
    with _wall_bound(2):
        code, out, err = run(capsys, "enumerate", "--class", klass, "--count",
                             "--max-windings", str(cap))
    assert (code, out, err) == (0, f"{expected}\n", "")


@pytest.mark.parametrize("klass, cap", [("full", 15), ("full", 61), ("hidden", 20), ("hidden", 61)])
def test_enumerate_region_final_count_answers_in_bounded_time(capsys, monkeypatch, klass, cap):
    if klass == "full":
        argv = ["--class", "full"]
        total = sum(row.total_knots for row in enumeration.census(cap - 1))
    else:  # 2 * 3^(n - 2) hidden-tuck knots of n windings
        argv = ["--class", "single", "--allow-hidden-tucks"]
        total = 3 ** (cap - 2) - 1
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", str(cap))
    counts = []
    for final in "LRC":
        with _wall_bound(2):
            code, out, err = run(capsys, "enumerate", *argv, "--final", final, "--count",
                                 "--max-windings", str(cap))
        assert (code, err) == (0, "")
        counts.append(int(out))
    assert all(counts) and sum(counts) == total


@pytest.mark.parametrize("text", ["L-1_0.0", "L-+5.0", "L- 5.0", "L-1.\u0663"])
def test_name_other_spellings_are_refused(capsys, text):
    code, out, err = run(capsys, "name", "--name", text)
    assert code == 1
    assert out == ""
    assert err == f"error: not a knot name: {text!r}\n"


def test_deep_tuck_name_reads_back(capsys):
    code, out, _ = run(capsys, "name", "--tw", "TWTTU'UU")
    assert (code, out) == (0, "R-3.0+p4d2\n")
    code, out, err = run(capsys, "name", "--name", "R-3.0+p4d2")
    assert code == 1 and out == ""
    assert err == "error: names with deep-tuck extensions are not constructible\n"


def test_instructions_by_name(capsys):
    code, out, _ = run(capsys, "instructions", "--name", "R-1.0")
    assert code == 0
    assert out.splitlines()[0].startswith("1. From left")
    assert "Tuck" in out


def test_sample_deterministic(capsys):
    code, first, _ = run(capsys, "sample", "3", "--seed", "7", "--max-windings", "12")
    code2, second, _ = run(capsys, "sample", "3", "--seed", "7", "--max-windings", "12")
    assert code == code2 == 0
    assert first == second
    assert len(first.strip().splitlines()) == 3


def test_sample_knots_validate(capsys):
    from tieknot.notation import parse_tw
    from tieknot.validity import validate

    _, out, _ = run(capsys, "sample", "5", "--seed", "1", "--format", "jsonl")
    for line in out.strip().splitlines():
        record = json.loads(line)
        assert validate(parse_tw(record["tw"])).valid


def test_census_csv(capsys):
    code, out, _ = run(capsys, "census", "--max-windings", "6", "--format", "csv", "--no-full")
    lines = out.strip().splitlines()
    assert lines[0].startswith("windings,moves,")
    assert lines[1] == "2,3,0,1,1,0,1,1,2,0"


def test_census_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", "5")
    _, out, _ = run(capsys, "census", "--max-windings", "9", "--format", "csv", "--no-full")
    assert len(out.strip().splitlines()) == 1 + 3  # header + windings 2..4

def test_validate_json_format(capsys):
    code, out, _ = run(capsys, "validate", "--clr", "LL", "--format", "json")
    assert code == 1
    record = json.loads(out)
    assert record["valid"] is False
    assert record["violations"][0]["rule"] == "T1"


def test_enumerate_progress(capsys):
    code, out, err = run(capsys, "enumerate", "--class", "single", "--max-windings", "5",
                         "--count", "--progress")
    assert code == 0
    assert out.strip() == "18"
    assert "[2 windings: 2 knots]" in err
    assert "[4 windings: 12 knots]" in err


def test_enumerate_lists_past_the_default_move_cap_under_a_raised_env_cap(capsys, monkeypatch):
    # The validity options' default cap of 13 moves must not bound the
    # listing: --max-windings under TIEKNOT_MAX_WINDINGS does.
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", "15")
    argv = ["enumerate", "--class", "single", "--max-windings", "15", "--progress"]
    code, listed, progress = run(capsys, *argv)
    assert code == 0
    assert "[14 windings: " in progress
    assert run(capsys, *argv, "--count") == (0, f"{len(listed.splitlines())}\n", progress)


@pytest.mark.parametrize("argv", [
    ["enumerate", "--class", "single"],
    ["enumerate", "--class", "full", "--count"],
    ["sample", "1"],
    ["census"],
], ids=["enumerate", "enumerate-count", "sample", "census"])
def test_a_negative_moves_bound_exits_2(capsys, argv):
    assert run(capsys, *argv, "--max-windings", "-5") == (
        2, "", "error: --max-windings must be >= 0, got -5\n"
    )


@pytest.mark.parametrize("bound", ["0", "1", "2"])
def test_a_moves_bound_below_3_answers_with_no_knots(capsys, bound):
    header = enumeration.CensusRow.CSV_HEADER.replace(",", "\t") + "\n"
    for argv, out in [
        (["enumerate", "--class", "single"], ""),
        (["enumerate", "--class", "full", "--count"], "0\n"),
        (["sample", "0"], ""),
        (["census"], header),
    ]:
        assert run(capsys, *argv, "--max-windings", bound) == (0, out, ""), argv


def test_crosscheck_honours_the_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", "6")
    with _wall_bound(2):
        code, out, err = run(capsys, "crosscheck", "--max-windings", "40", "--full-windings", "40")
    assert (code, err) == (0, "")
    assert "single-tuck knots to 6 moves: ok" in out
    assert "arbitrary-depth knots to 6 windings: ok" in out
    assert " to 40 " not in out


def test_crosscheck_command(capsys):
    code, out, _ = run(capsys, "crosscheck", "--max-windings", "9", "--full-windings", "6")
    assert code == 0
    assert "classical knots to 9 moves: ok" in out
    assert "MISMATCH" not in out


def _library_record(knot):
    """The schema-v1 record of a knot, field by field from the library, in emitted order."""
    from tieknot import catalog
    from tieknot.notation import final_region, tw_to_clr

    try:
        name = catalog.name_of(knot)
        naming = {"name": str(name), "tuck_bits": name.tuck_bits}
    except catalog.NamingError:
        naming = {"name": None, "tuck_bits": None}
    return {
        "tw": knot.serialize(),
        "clr": tw_to_clr(knot).serialize(),
        "start": knot.start.value,
        "windings": knot.winding_count,
        "moves": knot.move_count,
        "tucks": [{"position": p, "depth": d} for p, d in knot.tucks],
        "final_region": final_region(knot).value,
        "symmetry": catalog.symmetry(knot),
        "balance": catalog.balance(knot),
        **naming,
    }


@pytest.mark.parametrize("argv", [
    ["enumerate", "--class", "full", "--format", "jsonl", "--max-windings", "9"],
    ["enumerate", "--format", "jsonl", "--max-windings", "9", "--both-mirrors"],
    ["enumerate", "--format", "jsonl", "--max-windings", "9", "--allow-hidden-tucks"],
    ["sample", "50", "--seed", "3", "--format", "jsonl"],
])
def test_jsonl_lines_are_canonical_library_records(capsys, argv):
    from tieknot.notation import Region, parse_tw

    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 0 and lines
    nulls = 0
    for line in lines:
        record = json.loads(line)
        assert json.dumps(record) == line
        knot = parse_tw(record["tw"], Region(record["start"]))
        assert record == _library_record(knot)
        nulls += record["name"] is None
    if "--both-mirrors" in argv:  # a mirror starts at R, outside the naming scheme
        assert nulls == len(lines) // 2


def test_jsonl_line_of_a_name_too_long_to_print():
    from tieknot.cli import _knot_line
    from tieknot.notation import parse_tw

    knot = parse_tw("T" * 14300 + "TU")
    line = _knot_line(knot)
    record = json.loads(line)
    assert json.dumps(record) == line
    assert record["windings"] == 14301
    assert (record["name"], record["tuck_bits"]) == (None, None)
    assert record == _library_record(knot)


def test_jsonl_line_of_a_knot_started_at_a_region_letter():
    from tieknot.cli import _knot_line
    from tieknot.notation import KnotWord, parse_tw

    knot = parse_tw("TWWWTTTUTTU")
    for letter_started in (parse_tw("TWWWTTTUTTU", "L"), KnotWord(start="L", items=knot.items)):
        assert _knot_line(letter_started) == _knot_line(knot)


# -- fuzzing ------------------------------------------------------------------
# Random command lines from a small word list: every call answers in bounded
# time with exit 0, 1 or 2, whatever the environment cap.

_KNOT_TEXTS = ["", "U", "X", "TTU", "TU'UU", "TWWWTTTUTTU", "LU", "LL", "LCRU", "LCLRCRLCURLU",
               "L-1.0", "R-3.1", "Trinity", "L-1000000000000.0"]
_SMALL = st.integers(0, 8).map(str)
_COUNT_SIZES = st.sampled_from([*map(str, range(9)), "61", "1002", "5000"])


def _flags(*flags):
    return st.lists(st.sampled_from(flags), unique=True).map(
        lambda chosen: [word for flag in chosen for word in flag.split()]
    )


def _enumerate_argv(size):
    return st.builds(
        lambda klass, n, flags: ["enumerate", "--class", klass, "--max-windings", n, *flags],
        st.sampled_from(["fm", "single", "full", "windings"]), size,
        _flags("--final L", "--final C", "--final R", "--format jsonl", "--format csv",
               "--both-mirrors", "--allow-hidden-tucks", "--progress"),
    )


_ARGVS = st.one_of(
    st.builds(lambda command, knot, start: [command, *knot, *start],
              st.sampled_from(["validate", "name", "instructions", "aesthetics"]),
              st.tuples(st.sampled_from(["--tw", "--clr", "--name"]), st.sampled_from(_KNOT_TEXTS)),
              _flags("--start R")),
    st.builds(lambda text, flags: ["convert", text, *flags],
              st.sampled_from(_KNOT_TEXTS), _flags("--to-clr", "--annotate", "--mirror")),
    _enumerate_argv(_SMALL),
    _enumerate_argv(_COUNT_SIZES).map(lambda argv: [*argv, "--count"]),
    st.builds(lambda which, order: ["series", which, order],
              st.sampled_from(["fm", "single", "full", "c-final", "windings-l"]), _COUNT_SIZES),
    st.builds(lambda n, flags: ["census", "--max-windings", n, *flags],
              _COUNT_SIZES, _flags("--no-full", "--format csv", "--format jsonl")),
    st.builds(lambda count, n: ["sample", count, "--seed", "1", "--max-windings", n],
              st.sampled_from(["0", "3", "-1", "30000"]), _COUNT_SIZES),
    st.builds(lambda n, full: ["crosscheck", "--max-windings", n, "--full-windings", full],
              _SMALL, _SMALL),
    st.lists(st.sampled_from(["census", "series", "--count", "--tw", "TTU", "9", "--bogus"]),
             max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(_ARGVS, st.sampled_from([None, "abc", "-3", "3", "8", "13", "61", "100000"]))
def test_random_command_lines_exit_0_1_or_2_in_bounded_time(argv, cap):
    environ = {} if cap is None else {"TIEKNOT_MAX_WINDINGS": cap}
    with mock.patch.dict(os.environ, environ), redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()) as err, _wall_bound(2):
        if cap is None:
            os.environ.pop("TIEKNOT_MAX_WINDINGS", None)
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = os.path.dirname(os.path.dirname(tieknot.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "tieknot", "name", "--tw", "TWWWTTTUTTU"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "L-123.2\n", "")
