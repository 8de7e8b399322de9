"""Golden regression: CLI and demo output pinned by sha256.

Every case runs in-process and is reduced to the sha256 of its stdout,
the sha256 of its stderr and its exit code; ``tests/data/golden.json``
holds the recorded values.  A change that alters any byte of output
fails here.  After an intended output change, re-record the cases it
changes by name, or every case with no name given:

    PYTHONPATH=src python tests/test_golden.py [CASE_ID ...]

Either way each case whose record changed is printed, and an unknown
case id exits 2 with nothing written.
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

import pytest

from tieknot.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"

# id -> (argv, environment overrides).  Sizes are kept small so the
# whole module runs in a few seconds.
CLI_CASES = {
    "validate-plain": (["validate", "--tw", "TWWWTTTUTTU"], {}),
    "validate-json": (["validate", "--tw", "TTUWTTU", "--format", "json"], {}),
    "validate-options": (["validate", "--tw", "TTUWTTU", "--allow-hidden-tucks",
                          "--max-tuck-depth", "1", "--max-moves", "9"], {}),
    "validate-start": (["validate", "--tw", "WWU", "--start", "R", "--no-final-tuck",
                        "--allow-final-center"], {}),
    "validate-clr-invalid": (["validate", "--clr", "LL"], {}),
    "validate-clr-json": (["validate", "--clr", "LCLRCRLCURLU", "--format", "json"], {}),
    "validate-parse-error": (["validate", "--tw", "TWX"], {}),
    "validate-apostrophe-error": (["validate", "--tw", "TTU'T"], {}),
    "validate-tuck-first-error": (["validate", "--tw", "UTT"], {}),
    "validate-clr-parse-error": (["validate", "--clr", "UL"], {}),
    "validate-clr-apostrophe-error": (["validate", "--clr", "LCRU'"], {}),
    "validate-clr-character-error": (["validate", "--clr", "LCx"], {}),
    "usage-error": (["validate"], {}),
    "convert-to-clr": (["convert", "--to-clr", "TTTWWTTUTTWWU"], {}),
    "convert-to-clr-start-mirror": (["convert", "--to-clr", "--start", "C", "--mirror",
                                     "TWTTU'UU"], {}),
    "convert-to-tw": (["convert", "LCLRCRLCURLU"], {}),
    "convert-to-tw-mirror": (["convert", "--mirror", "RoCiLoU"], {}),
    "convert-apostrophes": (["convert", "LCRLRU'UUCU"], {}),
    "convert-annotate": (["convert", "--annotate", "RCLCRCLCRCLRUCRCLU"], {}),
    "convert-annotate-error": (["convert", "--annotate", "LCR"], {}),
    "convert-repeat-error": (["convert", "LLU"], {}),
    "enumerate-fm-plain": (["enumerate", "--class", "fm", "--max-windings", "7"], {}),
    "enumerate-fm-jsonl": (["enumerate", "--class", "fm", "--max-windings", "6",
                            "--format", "jsonl"], {}),
    "enumerate-single-plain": (["enumerate", "--max-windings", "8"], {}),
    "enumerate-single-jsonl": (["enumerate", "--max-windings", "8", "--format", "jsonl"], {}),
    "enumerate-single-csv": (["enumerate", "--max-windings", "8", "--format", "csv"], {}),
    "enumerate-full-jsonl": (["enumerate", "--class", "full", "--max-windings", "7",
                              "--format", "jsonl"], {}),
    "enumerate-full-count": (["enumerate", "--class", "full", "--max-windings", "9",
                              "--count"], {}),
    "enumerate-windings-csv": (["enumerate", "--class", "windings", "--max-windings", "6",
                                "--format", "csv"], {}),
    "enumerate-final": (["enumerate", "--max-windings", "9", "--final", "C"], {}),
    "enumerate-both-mirrors": (["enumerate", "--class", "full", "--max-windings", "6",
                                "--both-mirrors"], {}),
    "enumerate-both-mirrors-jsonl": (["enumerate", "--max-windings", "6", "--both-mirrors",
                                      "--format", "jsonl"], {}),
    "enumerate-progress": (["enumerate", "--max-windings", "7", "--progress"], {}),
    "enumerate-hidden-tucks": (["enumerate", "--max-windings", "7",
                                "--allow-hidden-tucks"], {}),
    "enumerate-hidden-full-error": (["enumerate", "--class", "full",
                                     "--allow-hidden-tucks"], {}),
    "enumerate-env-cap": (["enumerate", "--count"], {"TIEKNOT_MAX_WINDINGS": "8"}),
    "enumerate-env-error": (["enumerate", "--count"], {"TIEKNOT_MAX_WINDINGS": "abc"}),
    **{
        f"series-{which}": (["series", which, "12", "--verbose"], {})
        for which in ("c-final", "fm", "full", "l-final", "r-final", "single",
                      "windings-c", "windings-l", "windings-r")
    },
    "series-order-0": (["series", "full", "0"], {}),
    "series-negative": (["series", "single", "-1"], {}),
    "name-tw": (["name", "--tw", "TWWWTTTUTTU"], {}),
    "name-clr": (["name", "--clr", "LCLRCRLCURLU"], {}),
    "name-registry": (["name", "--name", "Trinity"], {}),
    "name-parsed": (["name", "--name", "R-1.0"], {}),
    "name-error": (["name", "--name", "Q-1.0"], {}),
    "name-deep-tuck-error": (["name", "--tw", "TWTTUU"], {}),
    "instructions-registry": (["instructions", "--name", "Trinity"], {}),
    "instructions-name": (["instructions", "--name", "L-3.1"], {}),
    "instructions-invalid": (["instructions", "--tw", "TT"], {}),
    "aesthetics-tw": (["aesthetics", "--tw", "TWTWTWTTU"], {}),
    "aesthetics-clr": (["aesthetics", "--clr", "LRCLCRLU"], {}),
    "aesthetics-start-error": (["aesthetics", "--tw", "WWU", "--start", "R"], {}),
    "sample-plain": (["sample", "6", "--seed", "7"], {}),
    "sample-jsonl": (["sample", "4", "--seed", "11", "--max-windings", "9",
                      "--format", "jsonl"], {}),
    "sample-all": (["sample", "5", "--seed", "1", "--max-windings", "5"], {}),
    "sample-too-many": (["sample", "30000", "--seed", "1"], {}),
    "sample-negative": (["sample", "-1", "--seed", "1", "--max-windings", "7"], {}),
    "census-plain": (["census", "--max-windings", "12"], {}),
    "census-csv": (["census", "--max-windings", "10", "--format", "csv"], {}),
    "census-jsonl": (["census", "--max-windings", "10", "--format", "jsonl"], {}),
    "census-no-full": (["census", "--no-full"], {}),
    "census-env-negative": (["census", "--no-full"], {"TIEKNOT_MAX_WINDINGS": "-3"}),
    "crosscheck": (["crosscheck", "--max-windings", "9", "--full-windings", "8"], {}),
}

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _capture(run) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run()
    return {"stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue()), "exit": code}


def _set_env(env: dict) -> None:
    for key, value in env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def _run_cli(argv, env) -> dict:
    # The case alone decides the cap, whatever the caller's environment holds.
    env = {"TIEKNOT_MAX_WINDINGS": None, **env}
    saved = {key: os.environ.get(key) for key in env}
    _set_env(env)
    try:
        return _capture(lambda: main(list(argv)))
    finally:
        _set_env(saved)


def _run_demo(path) -> dict:
    def run():
        runpy.run_path(str(path), run_name="__main__")
        return 0

    return _capture(run)


def _observe(case_id: str) -> dict:
    if case_id.startswith("demo:"):
        return _run_demo(ROOT / "demos" / case_id[len("demo:"):])
    return _run_cli(*CLI_CASES[case_id])


CASE_IDS = [*CLI_CASES, *(f"demo:{path.name}" for path in DEMOS)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASE_IDS)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_output_matches_golden(golden, case_id):
    assert _observe(case_id) == golden[case_id]


# The full record stream at the benchmark's size (25,650 records of 2 to 10
# windings), pinned to the sha256 first recorded for it.
FULL_JSONL_11_SHA256 = "9a31d1550c26f63945ece2a2f673e84fe47c8b4bc034e83c5ebe27fad55e86d3"


def test_full_jsonl_stream_to_11_windings_is_unchanged():
    argv = ["enumerate", "--class", "full", "--format", "jsonl", "--max-windings", "11"]
    observed = _run_cli(argv, {})
    assert observed == {"stdout": FULL_JSONL_11_SHA256, "stderr": _digest(""), "exit": 0}


def rerecord(case_ids, path=GOLDEN) -> int:
    """Re-record the named cases in ``path``, or every case (and no other) for none; print each
    case whose record changed.  An unknown id exits 2 and writes nothing."""
    unknown = [case_id for case_id in case_ids if case_id not in CASE_IDS]
    if unknown:
        print(f"unknown case id: {' '.join(unknown)}", file=sys.stderr)
        return 2
    old = json.loads(path.read_text()) if path.exists() else {}
    recorded = dict(old) if case_ids else {}
    for case_id in case_ids or CASE_IDS:
        recorded[case_id] = _observe(case_id)
        if recorded[case_id] != old.get(case_id):
            print(f"changed: {case_id}")
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def test_rerecord_takes_in_only_the_named_cases(tmp_path, capsys):
    path = tmp_path / "golden.json"
    stale = {case_id: {"stdout": "", "stderr": "", "exit": 0} for case_id in CASE_IDS}
    path.write_text(json.dumps(stale))
    assert rerecord(["series-fm", "no-such-case"], path) == 2
    assert json.loads(path.read_text()) == stale
    assert rerecord(["series-fm", "name-tw"], path) == 0
    assert capsys.readouterr().out == "changed: series-fm\nchanged: name-tw\n"
    assert json.loads(path.read_text()) == {**stale, "series-fm": _observe("series-fm"),
                                             "name-tw": _observe("name-tw")}


if __name__ == "__main__":
    sys.exit(rerecord(sys.argv[1:]))
