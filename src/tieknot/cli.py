"""Command-line interface.

Exit codes: 0 success (and, for ``validate``, a valid knot); 1 invalid
knot or failed check; 2 usage or parse errors, which include a
``TIEKNOT_MAX_WINDINGS`` that is not an integer of at least 3, a
``sample`` count outside 0..population and a ``series`` order outside
0..``SERIES_MAX_ORDER`` (1000).
Enumeration output is plain text by default, with ``--format jsonl``
/ ``--format csv`` where a record stream makes sense.  The environment
variable ``TIEKNOT_MAX_WINDINGS`` caps enumeration sizes, the
cross-check's two bounds included (default 13 moves).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys

from . import catalog, enumeration, grammars, validity
from .notation import (
    TURN_OF_REGION,
    KnotWord,
    NotationError,
    Region,
    classify_final,
    final_region,
    infer_orientations,
    mirror,
    parse_clr,
    parse_tw,
    render_instructions,
    tw_to_clr,
    clr_to_tw,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Input argparse cannot check; ``main`` reports it and exits 2."""


def _max_moves_cap() -> int:
    value = os.environ.get("TIEKNOT_MAX_WINDINGS", "13")
    try:
        cap = int(value)
    except ValueError:
        cap = None
    if cap is None or cap < 3:
        raise UsageError(f"TIEKNOT_MAX_WINDINGS must be an integer >= 3 (moves), got {value!r}")
    return cap


def _options_from(args) -> validity.ValidityOptions:
    return validity.ValidityOptions(
        require_final_tuck=not args.no_final_tuck,
        allow_final_center_no_tuck=args.allow_final_center,
        allow_hidden_tucks=args.allow_hidden_tucks,
        max_tuck_depth=args.max_tuck_depth,
        max_moves=args.max_moves,
    )


def _knot_line(knot: KnotWord) -> str:
    """The knot's schema-v1 JSONL record, written field by field.

    The text is what ``json.dumps`` writes for the record as a dict with
    default separators: its strings hold only letters, digits and
    ``'+-.``, which JSON copies unescaped.  ``name`` and ``tuck_bits``
    are null for a knot outside the naming scheme or whose name is too
    long to print.
    """
    tucks = ", ".join([f'{{"position": {p}, "depth": {d}}}' for p, d in knot.tucks])
    try:
        name = catalog.name_of(knot)
        naming = f'"{name}", "tuck_bits": {name.tuck_bits}'
    except catalog.NamingError:
        naming = 'null, "tuck_bits": null'
    return (
        f'{{"tw": "{knot.serialize()}", "clr": "{tw_to_clr(knot).serialize()}", '
        f'"start": "{knot.start.value}", "windings": {knot.winding_count}, '
        f'"moves": {knot.move_count}, "tucks": [{tucks}], '
        f'"final_region": "{final_region(knot).value}", "symmetry": {catalog.symmetry(knot)}, '
        f'"balance": {catalog.balance(knot)}, "name": {naming}}}'
    )


def cmd_validate(args) -> int:
    opts = _options_from(args)
    try:
        if args.clr is not None:
            report = validity.validate_clr(parse_clr(args.clr), opts)
        else:
            report = validity.validate(parse_tw(args.tw, Region(args.start)), opts)
    except NotationError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps(report.to_dict()))
    else:
        for line in report.lines():
            print(line)
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_convert(args) -> int:
    try:
        if args.annotate:
            word = parse_clr(args.string)
            print(infer_orientations(word).serialize())
        elif args.to_clr:
            knot = parse_tw(args.string, Region(args.start))
            if args.mirror:
                knot = mirror(knot)
            print(tw_to_clr(knot).serialize())
        else:
            knot = clr_to_tw(parse_clr(args.string))
            if args.mirror:
                knot = mirror(knot)
            print(f"start {knot.start.value}: {knot.serialize()}")
    except NotationError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _enumerate_knots(args):
    max_moves = min(args.max_windings, _max_moves_cap())
    if args.klass in ("single", "full"):
        opts = validity.ValidityOptions(
            max_tuck_depth=1 if args.klass == "single" else None,
            allow_hidden_tucks=args.allow_hidden_tucks,
        )
        yield from enumeration.oracle_enumerate(max_moves - 1, opts)
        return
    # Patterns in rank order, one at a time; classical knots: centre-final, tucked.
    fm = args.klass == "fm"
    for region in _pattern_regions(args.klass):
        for rank in itertools.count(1):
            windings = catalog.pattern_of(region, rank)
            if len(windings) >= max_moves:
                break
            yield parse_tw(windings + "U" if fm else windings)


def _pattern_regions(klass):
    """The final regions whose winding patterns a pattern class lists, in order."""
    return [Region.CENTER] if klass == "fm" else [Region.LEFT, Region.RIGHT, Region.CENTER]


def _report_bucket(windings, knots):
    print(f"[{windings} windings: {knots} knots]", file=sys.stderr)


def _count_knots(args, wanted) -> int:
    """``--count`` from the counting tables, with the ``--progress`` lines
    the listing writes.  Buckets are (windings, knots, knots ``--final``
    keeps) in listing order; a progress line sums one run of a length
    before the filter.  Pattern classes list region by region, so two
    regions' runs can share a line; the grammar classes list by length."""
    max_moves = min(args.max_windings, _max_moves_cap())
    lengths = range(2, max_moves)
    if args.klass == "single" and args.allow_hidden_tucks:
        table = enumeration.hidden_tuck_table(max_moves - 1)  # by windings, then turn
        turns = range(3) if wanted is None else [TURN_OF_REGION[wanted]]
        buckets = [(n, sum(table[n]), sum(table[n][t] for t in turns)) for n in lengths]
    elif args.klass == "full":  # the full series' degree counts windings
        series = grammars.count_by_size(grammars.full_grammar(), max_moves - 1)
        kept = series if wanted is None else grammars.count_by_size(
            grammars.full_grammar(wanted), max_moves - 1
        )
        buckets = [(n, series[n], kept[n]) for n in lengths]
    elif args.klass == "single":  # degree moves = windings + 1
        series = grammars.count_by_size(grammars.single_tuck_tw_grammar(), max_moves)
        kept = series if wanted is None else grammars.count_by_size(
            grammars.single_tuck_clr_grammar(wanted), max_moves
        )
        buckets = [(n, series[n + 1], kept[n + 1]) for n in lengths]
    else:
        buckets = []
        for region in _pattern_regions(args.klass):
            turn = TURN_OF_REGION[region]
            for n in lengths:
                patterns = enumeration.pattern_count(n, turn)
                buckets.append((n, patterns, patterns if wanted in (None, region) else 0))
    runs, count = [], 0
    for n, knots, kept_knots in buckets:
        count += kept_knots
        if runs and runs[-1][0] == n:
            runs[-1][1] += knots
        elif knots:
            runs.append([n, knots])
    if args.progress:
        for n, knots in runs:
            _report_bucket(n, knots)
    print(2 * count if args.both_mirrors else count)  # a mirror starts at R
    return EXIT_OK


def cmd_enumerate(args) -> int:
    wanted = None if args.final is None else Region(args.final)
    if args.klass == "full" and args.allow_hidden_tucks:
        print("error: hidden tucks are only enumerable for the single class", file=sys.stderr)
        return EXIT_USAGE
    if args.count:
        return _count_knots(args, wanted)
    bucket = None
    bucket_count = 0
    for knot in _enumerate_knots(args):
        if args.progress and knot.winding_count != bucket:
            if bucket is not None:
                _report_bucket(bucket, bucket_count)
            bucket, bucket_count = knot.winding_count, 0
        bucket_count += 1
        if wanted is not None and final_region(knot) is not wanted:
            continue
        for variant in (knot, mirror(knot)) if args.both_mirrors else (knot,):
            if args.format == "jsonl":
                print(_knot_line(variant))
            elif args.format == "csv":
                print(
                    f"{variant.serialize()},{tw_to_clr(variant).serialize()},{variant.start.value},"
                    f"{variant.winding_count},{variant.move_count},{final_region(variant).value}"
                )
            else:
                prefix = f"{variant.start.value} " if args.both_mirrors else ""
                print(prefix + (variant.serialize() or "<empty>"))
    if args.progress and bucket is not None:
        _report_bucket(bucket, bucket_count)
    return EXIT_OK


# Counting series from a grammar: name -> grammar factory.  The full
# grammar's degree counts windings, every other series' degree moves.
_GRAMMAR_SERIES = {
    "fm": grammars.fm_grammar,
    "single": grammars.single_tuck_tw_grammar,
    "r-final": lambda: grammars.single_tuck_clr_grammar(Region.RIGHT),
    "l-final": lambda: grammars.single_tuck_clr_grammar(Region.LEFT),
    "c-final": lambda: grammars.single_tuck_clr_grammar(Region.CENTER),
    "full": grammars.full_grammar,
}

# Winding patterns by final region, a series in moves (windings + 1).
_PATTERN_SERIES = {f"windings-{region.value.lower()}": region for region in Region}

SERIES_MAX_ORDER = 1000  # bounds the work: `series full` grows as the order squared


def cmd_series(args) -> int:
    if args.order < 0:
        raise UsageError(f"series order must be >= 0, got {args.order}")
    if args.order > SERIES_MAX_ORDER:
        raise UsageError(f"series order must be at most {SERIES_MAX_ORDER}, got {args.order}")
    if args.which in _PATTERN_SERIES:
        turn = TURN_OF_REGION[_PATTERN_SERIES[args.which]]
        series = [enumeration.pattern_count(m - 1, turn) if m >= 3 else 0 for m in range(args.order + 1)]
    else:
        series = grammars.count_by_size(_GRAMMAR_SERIES[args.which](), args.order)
    print(", ".join(map(str, series)))
    if args.verbose:
        print(f"# degree counts {'windings' if args.which == 'full' else 'moves'}")
    return EXIT_OK


def _resolve_knot(args) -> KnotWord:
    if args.name is not None:
        named = catalog.lookup(args.name)
        if named is not None:
            return named.tw
        return catalog.knot_of(catalog.KnotName.parse(args.name))
    if args.clr is not None:
        return clr_to_tw(parse_clr(args.clr))
    return parse_tw(args.tw, Region(args.start))


def _print_about_knot(args, describe) -> int:
    """Print ``describe(knot)`` for the knot the arguments give, or a
    one-line error when the knot or its description cannot be made:
    exit 2 for text that does not parse, 1 for the rest."""
    try:
        text = str(describe(_resolve_knot(args)))
    except ValueError as exc:  # NotationError, NamingError, invalid knots
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, NotationError) else EXIT_INVALID
    print(text)
    return EXIT_OK


def _aesthetics(knot: KnotWord) -> str:
    return (
        f"symmetry {catalog.symmetry(knot)}\n"
        f"balance {catalog.balance(knot)}\n"
        f"final {final_region(knot).value} ({classify_final(knot).value})"
    )


def cmd_name(args) -> int:
    return _print_about_knot(args, catalog.name_of)


def cmd_instructions(args) -> int:
    return _print_about_knot(args, render_instructions)


def cmd_aesthetics(args) -> int:
    return _print_about_knot(args, _aesthetics)


def cmd_sample(args) -> int:
    max_moves = min(args.max_windings, _max_moves_cap())
    # Ordered by (moves, text) like the enumeration oracle's list, so a
    # seed draws the same knots; only the knots drawn are parsed.
    texts = grammars.generate(grammars.single_tuck_tw_grammar(), max_moves)
    if not 0 <= args.count <= len(texts):
        raise UsageError(
            f"sample count must be between 0 and {len(texts)} (the single-tuck knots "
            f"of at most {max_moves} moves), got {args.count}"
        )
    rng = random.Random(args.seed)
    for index in sorted(rng.sample(range(len(texts)), args.count)):
        knot = parse_tw(texts[index])
        if args.format == "jsonl":
            print(_knot_line(knot))
        else:
            print(f"{catalog.name_of(knot)}  {knot.serialize()}")
    return EXIT_OK


def cmd_census(args) -> int:
    max_moves = min(args.max_windings, _max_moves_cap())
    rows = enumeration.census(max_moves - 1, include_full=not args.no_full)
    if args.format == "csv":
        print(enumeration.CensusRow.CSV_HEADER)
        for row in rows:
            print(row.csv_line())
    elif args.format == "jsonl":
        for row in rows:
            print(json.dumps(row.to_dict()))
    else:
        print(enumeration.CensusRow.CSV_HEADER.replace(",", "\t"))
        for row in rows:
            print(row.csv_line().replace(",", "\t"))
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    cap = _max_moves_cap()
    report = enumeration.cross_check(min(args.max_windings, cap), min(args.full_windings, cap))
    print(report)
    return EXIT_OK if report.ok else EXIT_INVALID


def _add_knot_arguments(parser, with_name=False):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--tw", help="knot in winding notation (T/W/U/')")
    group.add_argument("--clr", help="knot in region notation (L/C/R/U)")
    if with_name:
        group.add_argument("--name", help="knot name (R-1.0) or a registry name (Trinity)")
    parser.add_argument(
        "--start", default="L", choices=["L", "C", "R"], help="start region for --tw"
    )
    if not with_name:
        parser.set_defaults(name=None)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    return _parser()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tieknot", description="Tie-knot notation, validity, enumeration and naming."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a knot against the tie axioms")
    _add_knot_arguments(p)
    p.add_argument("--no-final-tuck", action="store_true")
    p.add_argument("--allow-final-center", action="store_true")
    p.add_argument("--allow-hidden-tucks", action="store_true")
    p.add_argument("--max-tuck-depth", type=int, default=None)
    p.add_argument("--max-moves", type=int, default=13)
    p.add_argument("--format", choices=["plain", "json"], default="plain")

    p = sub.add_parser("convert", help="convert between the notations")
    p.add_argument("string")
    p.add_argument("--to-clr", action="store_true", help="winding text to region text")
    p.add_argument("--annotate", action="store_true", help="add i/o marks to region text")
    p.add_argument("--mirror", action="store_true", help="reflect the knot first")
    p.add_argument("--start", default="L", choices=["L", "C", "R"])

    p = sub.add_parser("enumerate", help="list all knots of a language")
    p.add_argument("--class", dest="klass", default="single",
                   choices=["fm", "single", "full", "windings"])
    p.add_argument("--max-windings", type=int, default=13,
                   help="largest winding length (region symbol count)")
    p.add_argument("--final", choices=["L", "C", "R"], default=None)
    p.add_argument("--format", choices=["plain", "jsonl", "csv"], default="plain")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.add_argument("--both-mirrors", action="store_true",
                   help="emit the mirror image of each knot as well")
    p.add_argument("--allow-hidden-tucks", action="store_true")
    p.add_argument("--progress", action="store_true",
                   help="report bucket completion on stderr")

    p = sub.add_parser("series", help="print a counting series")
    p.add_argument("which", choices=sorted([*_GRAMMAR_SERIES, *_PATTERN_SERIES]))
    p.add_argument("order", type=int)
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("name", help="name a knot")
    _add_knot_arguments(p, with_name=True)

    p = sub.add_parser("instructions", help="print tying steps")
    _add_knot_arguments(p, with_name=True)

    p = sub.add_parser("aesthetics", help="symmetry and balance of a knot")
    _add_knot_arguments(p, with_name=True)

    p = sub.add_parser("sample", help="draw random single-tuck knots")
    p.add_argument("count", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-windings", type=int, default=13)
    p.add_argument("--format", choices=["plain", "jsonl"], default="plain")

    p = sub.add_parser("census", help="the knot census table")
    p.add_argument("--max-windings", type=int, default=13)
    p.add_argument("--format", choices=["plain", "jsonl", "csv"], default="plain")
    p.add_argument("--no-full", action="store_true",
                   help="skip the arbitrary-depth total column")

    p = sub.add_parser("crosscheck", help="compare enumerators against grammars")
    p.add_argument("--max-windings", type=int, default=13,
                   help="winding-length bound for the single-tuck checks")
    p.add_argument("--full-windings", type=int, default=13,
                   help="winding-count bound for the arbitrary-depth check (default 13)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # The handler is looked up on each call rather than stored in the
        # once-built parser, so a rebound ``cmd_*`` function takes effect.
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
