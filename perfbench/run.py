"""tieknot benchmark: one workload run, checked, with metrics by name.

    python3 perfbench/run.py --workload {stream,referee,lookup} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  ``--trace 0`` prints the end-to-end metrics: set-up time,
throughput, time to the first item, per-operation latency and peak
memory.  ``--trace 1`` runs the same fixed amount of work twice, without
and with a span tracer around the public functions of the seven modules,
and prints the per-layer metrics.  Every output is checked against
published numbers and independent references; the command exits 1 when
any check fails and 2 when it cannot run at all.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The design is recorded in ``design.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import MODULES
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # fresh processes whose set-up time is measured per run
TRACE_JOBS = {"stream": 2, "referee": 3, "lookup": 20}
DEADLINE_S = 170

# The public functions whose calls, self time and time per call are
# reported by name; every other wrapped function still counts in its
# module's totals and in the printed table.
LAYER_FUNCTIONS = (
    "notation.parse_tw", "notation.tw_to_clr", "notation.clr_to_tw",
    "notation.parse_clr", "notation.infer_orientations",
    "notation.render_instructions", "notation.final_region",
    "notation.canonicalize_tw", "notation.KnotWord.serialize",
    "notation.KnotWord.windings",
    "validity.validate", "validity.validate_clr", "validity.tuck_site_valid",
    "grammars.generate_with_sizes", "grammars.count_by_size", "grammars.generate",
    "enumeration.oracle_enumerate", "enumeration.full_language",
    "enumeration.single_tuck_knots", "enumeration.census",
    "enumeration.cross_check", "enumeration.depth1_sites",
    "enumeration.final_region_of",
    "genfunc.fit_recurrence", "genfunc.expand",
    "catalog.name_of", "catalog.knot_of", "catalog.pattern_rank",
    "catalog.symmetry", "catalog.balance",
    "cli.main", "cli.build_parser", "cli.cmd_enumerate", "cli.cmd_crosscheck",
    "cli.cmd_series",
)
PER_ITEM = ("notation.tw_to_clr", "notation.parse_tw", "validity.validate")


END_TO_END_UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "first_item_s": "s",
    "op_p50_us": "us", "op_p99_us": "us", "peak_rss_mb": "MB",
}


def _per_layer_units():
    units = {}
    for name in LAYER_FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.us_per_call": "us"})
    for module in MODULES:
        units.update({f"{module}.calls": "count", f"{module}.self_s": "s"})
    for name in PER_ITEM:
        units[f"{name}.calls_per_item"] = "calls/item"
    units["grammars.generate_with_sizes.us_per_member"] = "us/member"
    units["trace_overhead_frac"] = "ratio"
    units["trace.missing"] = "count"
    return units


PER_LAYER_UNITS = _per_layer_units()


class RunError(Exception):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, mode, **extra):
        a = self.args
        command = [
            sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
            "--workload", a.workload, "--seed", str(a.seed), "--size", a.size,
            "--mode", mode,
        ]
        for key, value in extra.items():
            command += [f"--{key}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError("out of time before starting a child process")
        try:
            done = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=remaining, check=False
            )
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"{mode} child exceeded the run's time limit") from exc
        if done.returncode != 0:
            raise RunError(f"{mode} child exited {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def measure(runner, args):
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = runner.child("measure", seconds=args.seconds)
    setups.append(result["setup_s"])
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": result["items"] / result["busy_s"] if result["busy_s"] else None,
        "first_item_s": result["first_item_s"],
        "op_p50_us": result["op_p50_s"] and result["op_p50_s"] * 1e6,
        "op_p99_us": result["op_p99_s"] and result["op_p99_s"] * 1e6,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"{args.workload}: {result['jobs']} jobs, {result['items']} items in "
          f"{result['busy_s']:.3f} nominal s ({result['raw_busy_s']:.3f} wall s) of calls; "
          f"{result['ops']} operations timed; "
          f"set-up samples {', '.join(f'{s:.4f}' for s in setups)} nominal s")
    return result, values, END_TO_END_UNITS


def trace(runner, args):
    jobs = TRACE_JOBS[args.workload]
    plain = runner.child("fixed", jobs=jobs)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}.txt.gz"
    traced = runner.child("fixed", jobs=jobs, traced=1, spans=spans)
    if traced["digest"] != plain["digest"]:
        traced["problems"].append("traced output differs from the untraced output")
    # Self times in nominal seconds, like every other time reported.
    scale = traced["busy_s"] / traced["raw_busy_s"]
    table = {name: (calls, self_s * scale) for name, (calls, self_s) in traced["table"].items()}
    items = max(traced["items"], 1)
    values = {}
    for name in LAYER_FUNCTIONS:
        calls, self_s = table.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        values[f"{name}.us_per_call"] = self_s * 1e6 / calls if calls else 0.0
    for module in MODULES:
        rows = [v for name, v in table.items() if name.startswith(module + ".")]
        values[f"{module}.calls"] = sum(c for c, _ in rows)
        values[f"{module}.self_s"] = sum(s for _, s in rows)
    for name in PER_ITEM:
        values[f"{name}.calls_per_item"] = table.get(name, (0, 0))[0] / items
    values["grammars.generate_with_sizes.us_per_member"] = (
        table.get("grammars.generate_with_sizes", (0, 0.0))[1] * 1e6 / items
    )
    values["trace_overhead_frac"] = traced["busy_s"] / plain["busy_s"] - 1
    missing = sorted(set(LAYER_FUNCTIONS) - set(traced["wrapped"]))
    values["trace.missing"] = len(missing)

    print(f"{args.workload} traced: {items} items; {traced['busy_s']:.3f} nominal s traced, "
          f"{plain['busy_s']:.3f} untraced; spans in {spans.relative_to(ROOT)}")
    if missing:
        print("trace.missing: " + ", ".join(missing))
    for row in json.loads((HERE / "design.json").read_text())["layer_map"]:
        print(f"layer map: {row['layer']} -> {row['moves']} on {row['on']}"
              f" (no change predicted on {row['no_change_on']})")
    print(f"{'function':44} {'calls':>10} {'self_s':>10} {'us/call':>9}")
    for name, (calls, self_s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        if calls:
            print(f"{name:44} {calls:>10} {self_s:>10.4f} {self_s * 1e6 / calls:>9.2f}")
    return traced, values, PER_LAYER_UNITS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="smoke: small inputs that finish in seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tieknot" / "__init__.py").is_file():
        print(f"error: no tieknot package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        result, values, units = (trace if args.trace else measure)(runner, args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = list(result["problems"])
    problems += [f"{name} was not measured" for name, v in values.items() if v is None]
    attempted, failed = result["attempted"], result["failed"]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    print(f"failed_frac = {failed / attempted if attempted else 1.0} "
          f"({failed} failed of {attempted} attempted)")
    correct = not problems and failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
