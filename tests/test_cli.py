import functools
import io
import json
import signal
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest

from tieknot import enumeration
from tieknot.cli import SERIES_MAX_ORDER, main


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
        (["sample", "30000"], None),
        (["sample", "-1", "--max-windings", "6"], None),
        (["series", "full", "-1"], None),
        (["series", "single", str(SERIES_MAX_ORDER + 1)], None),
    ],
    ids=[
        "env-census", "env-census-negative", "env-enumerate", "env-crosscheck",
        "sample-too-many", "sample-negative", "series-negative", "series-past-cap",
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


def test_name_too_long_to_print_is_one_line_error(capsys):
    # About 14,400 windings: the pattern rank has more digits than an int prints.
    with _wall_bound(2):
        code, out, err = run(capsys, "name", "--tw", "TW" * 7200 + "TTU")
    assert (code, out) == (1, "")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err == "error: a name whose pattern rank has 4335 digits cannot be printed (at most 4300)\n"


def test_census_answers_in_bounded_time_past_the_default_cap(capsys, monkeypatch):
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", "61")
    with _wall_bound(2):
        code, out, err = run(capsys, "census", "--max-windings", "61", "--format", "csv")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1 + 59  # header + windings 2..60
    assert lines[-1].startswith(f"60,61,{(2 ** 59 - 1) // 3},")


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
    assert stdout.getvalue() == "TTT\n"  # the first left-final pattern


def test_enumerate_full_streams_its_first_record(monkeypatch):
    # Listing and parsing every knot to 15 windings first would take minutes.
    monkeypatch.setenv("TIEKNOT_MAX_WINDINGS", "16")
    stdout = _OneLineStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    with _wall_bound(2):
        code = main(["enumerate", "--class", "full", "--format", "jsonl", "--max-windings", "16"])
    assert code == 0
    assert json.loads(stdout.getvalue())["tw"] == "TTU"


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
