"""Smoke tests of the benchmark harness: small inputs, every workload,
check and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, root=ROOT):
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return done.returncode, last


def smoke(workload, trace, root=ROOT):
    code, last = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                       "--trace", str(trace), "--size", "smoke", root=root)
    return code, json.loads(last)


def test_reference_ranks_match_listing_every_pattern():
    seen = {region: 0 for region in ref.REGIONS}
    for n in range(2, 13):
        for stem in itertools.product("TW", repeat=n - 1):  # alphabetical, T first
            windings = "".join(stem) + stem[-1]
            region = ref.final_region(windings)
            seen[region] += 1
            assert ref.pattern_rank(windings) == seen[region]


def test_reference_names_the_paper_knots():
    assert ref.name_and_bits(ref.TRINITY)[0] == ref.TRINITY_NAME
    assert ref.name_and_bits(ref.ELDREDGE)[0].endswith(ref.ELDREDGE_BITS_SUFFIX)
    assert ref.to_clr(ref.ELDREDGE) == "LCRLRCRLUCRCLU"
    assert ref.to_clr(ref.TRINITY) == "LCLRCRLCURLU"
    assert ref.annotate(ref.TRINITY) == "LiCoLiRoCiRoLiCoURiLoU"


def test_reference_annotation_matches_the_worked_example():
    # The paper's example starts at R.  Windings do not depend on the
    # start, so annotate from L and turn every region one step widdershins.
    order, clr = "LCR", "RCLCRCLCRCLRUCRCLU"
    windings, previous = [], clr[0]
    for ch in clr[1:]:
        if ch == "U":
            windings.append("U")
        else:
            windings.append("T" if order[(order.index(previous) + 1) % 3] == ch else "W")
            previous = ch
    annotated = ref.annotate("".join(windings))
    assert annotated.translate(str.maketrans("LCR", "RLC")) == "RiCoLiCoRiCoLiCoRiCoLiRoUCiRoCiLoU"


def test_crosscheck_member_count():
    assert ref.crosscheck_members(12, 10) == 85 + 2 * 9330 + 25650


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_end_to_end_metrics(workload):
    code, result = smoke(workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for spec in BENCHMARK["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run(workload):
    code, result = smoke(workload, 1)
    assert code == 0 and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert metrics["trace.missing"] == 0
    if workload == "stream":
        assert metrics["grammars.calls"] == 0
        assert metrics["notation.tw_to_clr.calls_per_item"] == 2.0
        assert metrics["validity.validate.calls_per_item"] == 1.0
    if workload == "referee":
        assert metrics["catalog.calls"] == 0
        assert metrics["grammars.generate_with_sizes.us_per_member"] > 0
    if workload == "lookup":
        assert metrics["catalog.pattern_rank.calls"] > 0


def test_benchmark_file_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, last = bench("--workload", "stream", "--seed", "1", "--seconds", "1",
                       "--trace", "0", root=tmp_path)
    assert code != 0 and not last.startswith("{")


def test_checks_catch_a_wrong_answer(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    catalog = tmp_path / "src" / "tieknot" / "catalog.py"
    source = catalog.read_text()
    broken = source.replace("return abs(rights - lefts)", "return abs(rights - lefts) + 1")
    assert broken != source
    catalog.write_text(broken)
    for workload in ("stream", "lookup"):
        code, result = smoke(workload, 0, root=tmp_path)
        assert code == 1 and not result["correct"] and result["failed"] > 0


INNER = """
import time

def leaf(x):
    time.sleep(0.002)
    return x + 1

def numbers(n):
    for i in range(n):
        yield leaf(i)

class Box:
    def __init__(self, v):
        self.v = v

    @property
    def doubled(self):
        return leaf(self.v) * 2
"""

OUTER = """
def root(n):
    return sum(numbers(n))
"""


def _fake_package():
    """A package ``fake`` whose ``outer`` module binds ``inner.numbers``
    by name, as ``from .inner import numbers`` would."""
    package = types.ModuleType("fake")
    package.inner = types.ModuleType("fake.inner")
    exec(INNER, package.inner.__dict__)
    package.outer = types.ModuleType("fake.outer")
    package.outer.numbers = package.inner.numbers
    exec(OUTER, package.outer.__dict__)
    return package


def test_tracer_spans_nest_and_time_generators():
    package = _fake_package()
    original = package.outer.numbers
    tracer = Tracer()
    wrapped = tracer.install(package, ("inner", "outer"))
    assert {"inner.leaf", "inner.numbers", "outer.root", "inner.Box.doubled"} <= wrapped
    assert package.outer.numbers is not original  # rebound where it was imported
    assert package.outer.root(3) == 6
    assert package.inner.Box(1).doubled == 4
    tracer.uninstall()
    assert package.outer.numbers is original
    table = tracer.table()
    assert table["outer.root"][0] == 1
    assert table["inner.numbers"][0] == 4  # three items and the final next()
    assert table["inner.Box.doubled"][0] == 1
    assert table["inner.leaf"][0] == 4
    # Each span's self time excludes the spans nested in it.
    assert table["inner.leaf"][1] >= 0.008
    assert table["inner.numbers"][1] < 0.002
    assert table["outer.root"][1] < 0.002
