"""The three closed-loop workloads: ``stream``, ``referee`` and ``lookup``.

Each workload is one caller in one thread: every call into the program
starts only after the previous one returned.  A workload object is made
from the imported ``tieknot`` package, a seed and a size, and offers

* ``warm_up()`` -- a small untimed pass that fills lazy caches; it is
  part of the set-up time;
* ``prepare()`` -- generates the workload's inputs (not part of set-up);
* ``job()`` -- one timed unit of work, checked against the references
  after its clock stops, returned as a :class:`Job`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field

import reference as ref
import speed

SIZES = ("full", "smoke")


@dataclass
class Job:
    items: int = 0  # records, cross-checked members or queries
    attempted: int = 0  # checked operations
    failed: int = 0
    digest: str = ""  # sha256 of the job's outputs
    problems: list = field(default_factory=list)
    clock: speed.Calibrated = field(default_factory=speed.Calibrated)  # timed operations
    first_ops: list = field(default_factory=list)  # operations that end in a first item


class _Sink(io.TextIOBase):
    """Stand-in for stdout that keeps the text.  Given a clock, it times
    each line as one operation, from the end of the line before."""

    def __init__(self, clock=None):
        self.chunks = []
        self.clock = clock
        self.lines = 0
        self.last = self.mark = None  # when the previous line ended

    def writable(self):
        return True

    def write(self, text):
        self.chunks.append(text)
        if self.clock is not None and "\n" in text:
            self.clock.add(self.last, self.mark)
            self.lines += 1
            self.last, self.mark = self.clock.now(), self.clock.mark()
        return len(text)

    def text(self):
        return "".join(self.chunks)


def _run_cli(tk, argv, clock, per_line=False):
    """(exit code, sink) of one in-process CLI call, timed on ``clock``
    as one operation, or as one per output line and the tail after them.
    A call that raises returns the exception in place of the exit code."""
    sink = _Sink(clock if per_line else None)
    sink.last, sink.mark = clock.now(), clock.mark()
    with contextlib.redirect_stdout(sink):
        try:
            code = tk.cli.main(argv)
        except Exception as exc:  # a raising call is a failed operation
            code = exc
    clock.add(sink.last, sink.mark)
    return code, sink


# ---------------------------------------------------------------------------


class Stream:
    """``enumerate --class full --format jsonl``: the record path."""

    name = "stream"

    def __init__(self, tk, seed, size):
        self.tk = tk
        self.max_windings = {"full": 11, "smoke": 6}[size]
        self.argv = [
            "enumerate", "--class", "full", "--format", "jsonl",
            "--max-windings", str(self.max_windings),
        ]
        self.expected = {
            n: ref.FULL_BY_WINDINGS[n] for n in range(2, self.max_windings)
        }

    def warm_up(self):
        _run_cli(self.tk, self.argv[:-1] + ["5"], speed.Calibrated())

    def prepare(self):
        pass  # the command is the whole input; the seed does not change it

    def job(self):
        job = Job(first_ops=[0])
        with job.clock:
            code, sink = _run_cli(self.tk, self.argv, job.clock, per_line=True)
        text = sink.text()
        job.items = sink.lines
        job.digest = hashlib.sha256(text.encode()).hexdigest()
        job.attempted = sum(self.expected.values())
        if code != 0:
            job.problems.append(f"enumerate exited {code}")
        job.failed = self._check(text, job.digest, job.problems)
        return job

    def _check(self, text, digest, problems):
        """Failed records: every record of a bucket whose count, digest or
        any record disagrees with the references, plus unplaceable lines.
        Lines are checked one at a time so that the check adds little to
        the process's peak memory."""
        counts, hashes, wrong, stray = {}, {}, {}, 0
        for line in io.StringIO(text):
            if not line.endswith("\n"):
                problems.append("stream does not end with a newline")
            try:
                record = json.loads(line)
                n = record["windings"]
                counts[n] = counts.get(n, 0) + 1
            except (ValueError, KeyError, TypeError):
                stray += 1
                continue
            hashes.setdefault(n, hashlib.sha256()).update(line.encode())
            if n not in wrong and not ref.record_matches(record):
                wrong[n] = line.strip()
        if stray:
            problems.append(f"{stray} lines are not schema-v1 JSON records")
        digests = ref.STREAM_DIGESTS.get(self.max_windings)
        if digests is None:
            problems.append(f"no recorded digest for --max-windings {self.max_windings}")
        elif digest != digests["stream"]:
            problems.append("stream digest differs from the seed commit's")
        failed = stray
        for n in set(counts) - set(self.expected):
            failed += counts[n]
            problems.append(f"unexpected bucket of {n} windings")
        for n, count in self.expected.items():
            bad = None
            if counts.get(n, 0) != count:
                bad = f"{counts.get(n, 0)} records, published {count}"
            elif digests is not None and hashes[n].hexdigest() != digests["buckets"].get(str(n)):
                bad = "digest differs from the seed commit's"
            elif n in wrong:
                bad = f"record {wrong[n]} differs from the reference"
            if bad:
                failed += count
                problems.append(f"bucket {n} windings: {bad}")
        return failed


# ---------------------------------------------------------------------------


class Referee:
    """``crosscheck``, then ``series`` for every name, then recovering two
    closed forms with ``fit_recurrence``."""

    name = "referee"
    FIT_ORDER = 4

    def __init__(self, tk, seed, size):
        self.tk = tk
        self.max_moves, self.full_windings = {"full": (12, 9), "smoke": (6, 5)}[size]
        self.series = sorted(ref.SERIES)  # the commands are the whole input, as in stream
        self.members = ref.crosscheck_members(self.max_moves, self.full_windings)

    def warm_up(self):
        self._pass(4, 3)

    def prepare(self):
        pass

    def job(self):
        job = Job(items=self.members, first_ops=[0])
        with job.clock:
            outputs = self._pass(self.max_moves, self.full_windings, job)
        job.digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        return job

    def _pass(self, max_moves, full_windings, job=None):
        tk = self.tk
        job = job or Job()
        outputs = []

        def record(ok, problem, output):
            job.attempted += 1
            outputs.append(output)
            if not ok:
                job.failed += 1
                job.problems.append(problem)

        reports = []
        original = tk.enumeration.cross_check

        def capture(*args, **kwargs):
            reports.append(original(*args, **kwargs))
            return reports[-1]

        tk.enumeration.cross_check = capture
        try:
            code, sink = _run_cli(
                tk, ["crosscheck", "--max-windings", str(max_moves),
                     "--full-windings", str(full_windings)], job.clock
            )
        finally:
            tk.enumeration.cross_check = original
        ok = code == 0 and len(reports) == 1 and reports[0].ok
        record(ok, f"crosscheck exited {code}: {sink.text()!r}", sink.text())

        printed = {}
        for name in self.series:
            order = len(ref.SERIES[name]) - 1
            code, sink = _run_cli(tk, ["series", name, str(order)], job.clock)
            try:
                printed[name] = tuple(int(c) for c in sink.text().split("\n")[0].split(", "))
            except ValueError:
                printed[name] = None
            ok = code == 0 and printed[name] == ref.SERIES[name]
            record(ok, f"series {name} printed {sink.text()!r}", sink.text())

        for name, (num, den) in ref.CLOSED_FORMS.items():
            coefficients = printed.get(name) or ref.SERIES[name]
            series = tk.genfunc.Series(coefficients)
            start, mark = job.clock.now(), job.clock.mark()
            try:
                fitted = tk.genfunc.fit_recurrence(series, self.FIT_ORDER)
            except Exception as exc:  # a raising call is a failed operation
                fitted = exc
            job.clock.add(start, mark)
            ok = isinstance(fitted, tk.genfunc.RationalGF) and _same_ratio(
                (fitted.numerator, fitted.denominator), (num, den)
            )
            record(ok, f"fit_recurrence({name}) gave {fitted}", str(fitted))
        return outputs


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _same_ratio(left, right):
    """N1/D1 == N2/D2 as rational functions."""
    (n1, d1), (n2, d2) = left, right
    return _poly_mul(n1, d2) == _poly_mul(n2, d1)


# ---------------------------------------------------------------------------


class Lookup:
    """A seeded mix of single-knot library calls, four per query."""

    name = "lookup"
    MIN_WINDINGS, MAX_WINDINGS = 2, 16
    POOL = 2048
    BATCH = 500  # queries per job
    CALLS_PER_QUERY = 4

    def __init__(self, tk, seed, size):
        self.tk = tk
        self.seed = seed
        self.batch = {"full": self.BATCH, "smoke": 100}[size]
        notation, validity, catalog = tk.notation, tk.validity, tk.catalog

        def rules(report):
            return tuple(sorted({v.rule for v in report.violations}))

        def aesthetics(text):
            knot = notation.parse_tw(text)
            return (catalog.symmetry(knot), catalog.balance(knot),
                    notation.classify_final(knot).value)

        # call kind -> function of one text input.  Module attributes are
        # looked up at call time, so a tracer installed later sees them.
        self.calls = {
            "name_of": lambda text: str(catalog.name_of(notation.parse_tw(text))),
            "knot_of": lambda name: catalog.knot_of(catalog.KnotName.parse(name)).serialize(),
            "validate": lambda text: rules(validity.validate(notation.parse_tw(text))),
            "validate_clr": lambda clr: rules(validity.validate_clr(notation.parse_clr(clr))),
            "tw_to_clr": lambda text: notation.tw_to_clr(notation.parse_tw(text)).serialize(),
            "clr_to_tw": lambda clr: notation.clr_to_tw(notation.parse_clr(clr)).serialize(),
            "infer_orientations": lambda clr: notation.infer_orientations(
                notation.parse_clr(clr)).serialize(),
            "render_instructions": lambda text: len(
                notation.render_instructions(notation.parse_tw(text)).split("\n")),
            "aesthetics": aesthetics,
        }
        self.pool = []
        self.rng = None

    def warm_up(self):
        """Every call kind on a knot of each length and final region."""
        for entry in self._warm_up_entries():
            for kind in self.calls:
                for argument, _ in self._arguments(entry, kind, mutant=False):
                    self.calls[kind](argument)

    def _warm_up_entries(self):
        entries = []
        for n in range(self.MIN_WINDINGS, self.MAX_WINDINGS + 1):
            seen = set()
            for bits in range(2 ** (n - 1)):
                stem = "".join("W" if bits >> i & 1 else "T" for i in range(n - 1))
                windings = stem + stem[-1]
                region = ref.final_region(windings)
                if region not in seen:
                    seen.add(region)
                    entries.append(_entry(windings, []))
                if len(seen) == 3:
                    break
        return entries

    def prepare(self):
        rng = random.Random(self.seed)
        for _ in range(self.POOL):
            n = rng.randint(self.MIN_WINDINGS, self.MAX_WINDINGS)
            stem = "".join(rng.choice("TW") for _ in range(n - 1))
            windings = stem + stem[-1]
            sites = [p for p in ref.depth1_sites(windings) if p < n]
            entry = _entry(windings, [p for p in sites if rng.random() < 0.5])
            entry["mutant"] = _mutant(windings, entry["text"], rng)
            entry["clr_mutant"] = _clr_mutant(entry["clr"], rng)
            self.pool.append(entry)
        self.rng = random.Random(self.seed + 1)

    def _arguments(self, entry, kind, mutant):
        """(argument, expected answer) pairs one call kind asks of an entry."""
        if kind == "name_of":
            return [(entry["text"], entry["name"])]
        if kind == "knot_of":
            return [(entry["name"], entry["text"])]
        if kind == "validate":
            return [entry["mutant"] if mutant else (entry["text"], entry["rules"])]
        if kind == "validate_clr":
            return [entry["clr_mutant"] if mutant else (entry["clr"], entry["rules"])]
        if kind == "tw_to_clr":
            return [(entry["text"], entry["clr"])]
        if kind == "clr_to_tw":
            return [(entry["clr"], entry["text"])]
        if kind == "infer_orientations":
            return [(entry["clr"], entry["annotated"])]
        if kind == "render_instructions":
            return [(entry["text"], entry["steps"])] if entry["moves"] <= 13 else []
        return [(entry["text"], entry["aesthetics"])]

    def _queries(self, count):
        rng, kinds = self.rng, list(self.calls)
        queries = []
        for _ in range(count):
            entry = rng.choice(self.pool)
            calls = []
            while len(calls) < self.CALLS_PER_QUERY:
                kind = rng.choice(kinds)
                for argument, expected in self._arguments(entry, kind, rng.random() < 0.5):
                    calls.append((kind, self.calls[kind], argument, expected))
            queries.append(calls)
        return queries

    def job(self):
        queries, results = self._queries(self.batch), []
        job = Job(first_ops=list(range(len(queries))))  # a query's one item is its answer
        clock = job.clock
        with clock:
            for calls in queries:
                start, mark = clock.now(), clock.mark()
                answers = []
                for _, call, argument, _ in calls:
                    try:
                        answers.append(call(argument))
                    except Exception as exc:  # a raising call is a failed query
                        answers.append(exc)
                clock.add(start, mark)
                results.append(answers)
        job.items = len(results)
        job.digest = hashlib.sha256(repr(results).encode()).hexdigest()
        for calls, answers in zip(queries, results):
            wrong = [
                f"{kind}({argument!r}) = {answer!r}, expected {expected!r}"
                for (kind, _, argument, expected), answer in zip(calls, answers)
                if answer != expected
            ]
            if wrong:
                job.failed += 1
                job.problems.extend(wrong)
        trinity = self.calls["name_of"](ref.TRINITY)
        eldredge = self.calls["name_of"](ref.ELDREDGE)
        if trinity != ref.TRINITY_NAME:
            job.failed += 1
            job.problems.append(f"Trinity is named {trinity}, not {ref.TRINITY_NAME}")
        if not eldredge.endswith(ref.ELDREDGE_BITS_SUFFIX):
            job.failed += 1
            job.problems.append(f"Eldredge is named {eldredge}, not *{ref.ELDREDGE_BITS_SUFFIX}")
        job.attempted = len(results) + 2
        return job


WORKLOADS = {w.name: w for w in (Stream, Referee, Lookup)}


def _entry(windings, tucked_sites):
    """A valid single-depth knot with every answer the lookup calls expect."""
    text = ref.knot_from(windings, tucked_sites)
    name, _ = ref.name_and_bits(text)
    moves = len(windings) + 1
    return {
        "text": text,
        "name": name,
        "moves": moves,
        "clr": ref.to_clr(text),
        "annotated": ref.annotate(text),
        "rules": ("cap",) if moves > 13 else (),
        "steps": len(windings) + len(tucked_sites) + 1,
        "aesthetics": (ref.symmetry(windings), ref.balance(windings),
                       ref.final_class(windings)),
    }


def _insert_tuck(text, position):
    """Insert a depth-1 tuck right after winding ``position``."""
    seen = 0
    for index, ch in enumerate(text):
        if ch in "TW":
            seen += 1
            if seen == position:
                return text[: index + 1] + "U" + text[index + 1:]
    raise ValueError(position)


def _mutant(windings, text, rng):
    """(text, expected violated rules) for the knot with one rule broken."""
    n = len(windings)
    cap = ("cap",) if n + 1 > 13 else ()
    options = [
        (text[:-1], "T4"),  # no closing tuck
        (_insert_tuck(text, 1), "T5"),  # a tuck with no room under it
    ]
    for p in range(2, n):
        equal = windings[p - 2] == windings[p - 1]
        if not equal and (n - p) % 2 == 0:
            options.append((_insert_tuck(text, p), "window"))
        elif equal and (n - p) % 2 == 1:
            options.append((_insert_tuck(text, p), "T3"))
    mutant, rule = rng.choice(options)
    return mutant, tuple(sorted({rule, *cap}))


def _clr_mutant(clr, rng):
    """(region text with one region visited twice in a row, ("T1",))."""
    visits = [i for i, ch in enumerate(clr) if ch in "LCR"]
    i = rng.choice(visits)
    return clr[: i + 1] + clr[i] + clr[i + 1:], ("T1",)
