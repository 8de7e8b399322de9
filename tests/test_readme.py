"""The README's library examples run as written, and so do its command lines."""

import doctest
import shlex
from pathlib import Path

import pytest

from tieknot.cli import main
from tieknot.enumeration import CensusRow

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_examples():
    results = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert results.attempted >= 15
    assert results.failed == 0


def _command_lines():
    """Each line of the "Command line" block: its arguments after ``tieknot``, and its comment."""
    text = README.read_text(encoding="utf-8")
    for line in text.split("## Command line\n\n```\n", 1)[1].split("\n```", 1)[0].splitlines():
        command, _, comment = line.partition("#")
        program, *args = shlex.split(command)
        assert program == "tieknot", line
        yield " ".join(args), comment.strip()


# For each command: its exit code, the literal result its comment states (or ""),
# and what the printed lines must be for the comment to hold.
CHECKS = {
    "validate --tw TWWWTTTUTTU": (0, "0 valid", lambda lines: lines == ["valid"]),
    "validate --clr LL": (1, "region L repeats",
                          lambda lines: lines == ["invalid", "[T1] at 1: region L repeats"]),
    "convert --to-clr TTTWWTTUTTWWU": (0, "LCRLRCRLUCRCLU", lambda lines: lines == ["LCRLRCRLUCRCLU"]),
    "convert --annotate RCLCRCLCRCLRUCRCLU": (0, "", lambda lines: len(lines) == 1),
    "enumerate --class fm --max-windings 9 --count": (0, "85", lambda lines: lines == ["85"]),
    "enumerate --class single --max-windings 12 --count": (0, "9330", lambda lines: lines == ["9330"]),
    "enumerate --class full --count": (0, "266682", lambda lines: lines == ["266682"]),
    "enumerate --class full --max-windings 5": (0, "26 knots",
                                                lambda lines: len(set(lines)) == len(lines) == 26),
    "series full 12": (0, "0, 0, 2, 4, 20, 40, ... 202392", lambda lines: (
        len(lines) == 1 and lines[0].startswith("0, 0, 2, 4, 20, 40, ") and lines[0].endswith(", 202392")
        and len(lines[0].split(", ")) == 13)),
    "series single 13": (0, "", lambda lines: len(lines[0].split(", ")) == 14),
    "name --tw TWWWTTTUTTU": (0, "L-123.2", lambda lines: lines == ["L-123.2"]),
    "instructions --name R-1.0": (0, "", lambda lines: lines[0].startswith("1. ")),
    "aesthetics --tw TTTWWTTUTTWWU": (0, "symmetry 0, balance 3",
                                      lambda lines: lines[:2] == ["symmetry 0", "balance 3"]),
    "sample 3 --seed 7": (0, "", lambda lines: len(lines) == 3),
    "census --format csv": (0, "", lambda lines: lines[0] == CensusRow.CSV_HEADER),
    "crosscheck": (0, "13 windings", lambda lines: all(": ok (" in line for line in lines)
                   and "arbitrary-depth knots to 13 windings: ok (671466 members)" in lines),
}


@pytest.mark.parametrize("command, comment", [pytest.param(*line, id=line[0]) for line in _command_lines()])
def test_readme_command_line_runs_as_its_comment_says(capsys, monkeypatch, command, comment):
    monkeypatch.delenv("TIEKNOT_MAX_WINDINGS", raising=False)
    code, literal, holds = CHECKS[command]
    assert literal in comment
    assert main(shlex.split(command)) == code
    lines = capsys.readouterr().out.splitlines()
    assert holds(lines), lines


def test_every_checked_command_is_in_the_readme_block():
    assert sorted(CHECKS) == sorted(command for command, _ in _command_lines())
