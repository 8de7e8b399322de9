"""One workload run in a fresh process; prints one JSON line of results.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``setup``   -- import ``tieknot`` and warm up, then report the set-up time;
* ``measure`` -- set up, then run jobs until ``--seconds`` have passed;
* ``fixed``   -- set up, then run exactly ``--jobs`` jobs, with the span
  tracer installed when ``--traced 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _import_program(src):
    sys.path.insert(0, str(src))
    import tieknot
    import tieknot.cli  # noqa: F401  (the CLI module is not imported by the package)

    if not Path(tieknot.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"tieknot was imported from {tieknot.__file__}, not {src}")
    return tieknot


def quantile(values, q):
    """The q-quantile of ``values`` by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[0] if ordered else None
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--mode", choices=("setup", "measure", "fixed"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    with speed.Calibrated() as setup:
        start, mark = setup.now(), setup.mark()
        tk = _import_program(args.root / "src")
        workload = workloads.WORKLOADS[args.workload](tk, args.seed, args.size)
        workload.warm_up()
        setup.add(start, mark)
    out = {"setup_s": setup.nominal()[0], "setup_raw_s": setup.ops[0][0]}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    workload.prepare()
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        out["wrapped"] = sorted(tracer.install(tk))
    # Keep only each job's totals and nominal times, so that the
    # benchmark's own memory stays small next to the program's.
    jobs = raw = items = attempted = failed = 0
    latencies, firsts, digests, problems = array("d"), array("d"), [], []
    begin = time.perf_counter()
    while not (args.mode == "measure" and time.perf_counter() - begin >= args.seconds
               or args.mode == "fixed" and jobs >= args.jobs):
        job = workload.job()
        nominal = job.clock.nominal()
        latencies.extend(nominal)
        firsts.extend(nominal[i] for i in job.first_ops if i < len(nominal))
        raw += sum(op[0] for op in job.clock.ops)
        jobs, items = jobs + 1, items + job.items
        attempted, failed = attempted + job.attempted, failed + job.failed
        digests.append(job.digest)
        problems += job.problems[: 20 - len(problems)]
        del job, nominal
    if tracer is not None:
        tracer.uninstall()
        out["table"] = tracer.table()
        if args.spans is not None:
            tracer.write_spans(args.spans)

    out.update(
        jobs=jobs,
        busy_s=sum(latencies),
        raw_busy_s=raw,
        items=items,
        attempted=attempted,
        failed=failed,
        first_item_s=quantile(firsts, 0.50),
        op_p50_s=quantile(latencies, 0.50),
        op_p99_s=quantile(latencies, 0.99),
        ops=len(latencies),
        digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
        problems=problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
