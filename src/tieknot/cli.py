"""Command-line interface.

Exit codes: 0 success (and, for ``validate``, a valid knot); 1 invalid
knot or failed check; 2 usage or parse errors, which include a
``TIEKNOT_MAX_WINDINGS`` that is not an integer of at least 3, a
``sample`` count outside 0..population, a ``sample`` population above
``SAMPLE_MAX_POPULATION`` (2**20) knots, a ``series`` order outside
0..``SERIES_MAX_ORDER`` (1000), a moves bound (``--max-windings``)
below 0 or, under that cap, above ``SERIES_MAX_ORDER`` for ``enumerate``,
``sample`` and ``census``, ``crosscheck`` bounds below 3 moves or 2 windings, a
negative ``validate --max-moves`` or ``--max-tuck-depth``, ``--start`` with
input that is not winding text, and a repeated region given to ``convert``;
``--annotate`` exits 1 on an i/o mark the last tuck contradicts, as ``validate --clr``.
Enumeration output is plain text by default, with ``--format jsonl``
/ ``--format csv`` where a record stream makes sense.  The environment
variable ``TIEKNOT_MAX_WINDINGS`` caps enumeration sizes (default 13
moves) and both cross-check bounds, each in its language's unit
(``enumeration.LANGUAGES``): 13 moves and 13 windings by default.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import catalog, enumeration, grammars, validity
from .notation import (
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


SERIES_MAX_ORDER = 1000  # bounds the work: `series full` grows as the order squared
SAMPLE_MAX_POPULATION = 1 << 20  # bounds the listing `sample` draws from: 17 moves fit, 18 do not


def _max_moves(args) -> int:
    """``--max-windings`` under the environment cap, refused below 0 and
    above ``SERIES_MAX_ORDER``: the counting tables grow as a series' do."""
    if args.max_windings < 0:
        raise UsageError(f"--max-windings must be >= 0, got {args.max_windings}")
    max_moves = min(args.max_windings, _max_moves_cap())
    if max_moves > SERIES_MAX_ORDER:
        raise UsageError(f"--max-windings must be at most {SERIES_MAX_ORDER} moves, got {max_moves}")
    return max_moves


def _options_from(args) -> validity.ValidityOptions:
    for flag, cap in (("--max-moves", args.max_moves), ("--max-tuck-depth", args.max_tuck_depth)):
        if cap is not None and cap < 0:
            raise UsageError(f"{flag} must be >= 0, got {cap}")
    return validity.ValidityOptions(
        require_final_tuck=not args.no_final_tuck,
        allow_final_center_no_tuck=args.allow_final_center,
        allow_hidden_tucks=args.allow_hidden_tucks,
        max_tuck_depth=args.max_tuck_depth,
        max_moves=args.max_moves,
    )


class _TuckFragments(dict):
    """Each ``(position, depth)`` tuck's JSON object text: a memo of at most 4,096 tucks."""

    def __missing__(self, tuck):
        fragment = '{"position": %d, "depth": %d}' % tuck
        if len(self) < 4096:
            self[tuck] = fragment
        return fragment


_tuck_fragment = _TuckFragments().__getitem__


def _knot_line(knot: KnotWord) -> str:
    """The knot's schema-v1 JSONL record, written field by field.

    The text is what ``json.dumps`` writes for the record as a dict with
    default separators: its strings hold only letters, digits and
    ``'+-.``, which JSON copies unescaped.  ``name`` and ``tuck_bits``
    are null for a knot outside the naming scheme or whose name is too
    long to print.  The word's kept views are read directly.
    """
    tucks = ", ".join(map(_tuck_fragment, knot._tucks))
    try:
        name = catalog.name_of(knot)
        naming = f'"{name}", "tuck_bits": {name.tuck_bits}'
    except catalog.NamingError:
        naming = 'null, "tuck_bits": null'
    windings = len(knot._windings)
    return (
        f'{{"tw": "{knot._text}", "clr": "{tw_to_clr(knot)._text}", '
        f'"start": "{knot.start._value_}", "windings": {windings}, '
        f'"moves": {windings + 1}, "tucks": [{tucks}], '
        f'"final_region": "{knot._final._value_}", "symmetry": {catalog.symmetry(knot)}, '
        f'"balance": {catalog.balance(knot)}, "name": {naming}}}'
    )


def _start(args, winding: bool) -> Region:
    """``--start`` for winding text (L by default); region text and names carry their own."""
    if args.start is not None and not winding:
        raise UsageError("--start applies only to winding text (--tw, or convert --to-clr)")
    return Region(args.start or "L")


def cmd_validate(args) -> int:
    opts = _options_from(args)
    start = _start(args, args.tw is not None)
    try:
        if args.clr is not None:
            report = validity.validate_clr(parse_clr(args.clr), opts)
        else:
            report = validity.validate(parse_tw(args.tw, start), opts)
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
    start = _start(args, args.to_clr)
    try:
        if args.annotate:  # convert's refusals first; the mirror image visits the reflected regions
            clr_to_tw(parse_clr(args.string))  # a repeated region has no winding direction
            text = args.string.translate(str.maketrans("LR", "RL")) if args.mirror else args.string
            word = parse_clr(text)
            oriented = infer_orientations(word)
            report = validity.validate_clr(word)
            if report != validity.validate_clr(oriented):  # only a wrong mark changes the verdict
                print(f"error: {report.violations[0]}", file=sys.stderr)
                return EXIT_INVALID
            print(oriented.serialize())
        else:
            knot = parse_tw(args.string, start) if args.to_clr else clr_to_tw(parse_clr(args.string))
            if args.mirror:
                knot = mirror(knot)
            print(tw_to_clr(knot).serialize() if args.to_clr else f"start {knot.start.value}: {knot.serialize()}")
    except NotationError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _report_bucket(windings, knots):
    print(f"[{windings} windings: {knots} knots]", file=sys.stderr)


def _count_knots(args, language, wanted) -> int:
    """``--count`` from the language's counts of the knots kept, with the
    ``--progress`` lines the listing writes: one per winding count that
    lists a knot, counted before the ``--final`` filter."""
    max_moves = _max_moves(args)
    shift, degree = language.shift, max_moves - 1 + language.shift
    kept = language.counts(wanted, degree)
    if args.progress:
        listed = kept if wanted is None else language.counts(None, degree)
        for n in range(2, max_moves):
            if listed[n + shift]:
                _report_bucket(n, listed[n + shift])
    count = sum(kept[n + shift] for n in range(2, max_moves))
    print(2 * count if args.both_mirrors else count)  # a mirror starts at R
    return EXIT_OK


def cmd_enumerate(args) -> int:
    wanted = None if args.final is None else Region(args.final)
    if args.klass != "single" and args.allow_hidden_tucks:
        print("error: hidden tucks are only enumerable for the single class", file=sys.stderr)
        return EXIT_USAGE
    language = enumeration.LANGUAGES["hidden" if args.allow_hidden_tucks else args.klass]
    if args.count:
        return _count_knots(args, language, wanted)
    bucket = None
    bucket_count = 0
    for knot in language.knots(_max_moves(args) - 1):
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


def cmd_series(args) -> int:
    if args.order < 0:
        raise UsageError(f"series order must be >= 0, got {args.order}")
    if args.order > SERIES_MAX_ORDER:
        raise UsageError(f"series order must be at most {SERIES_MAX_ORDER}, got {args.order}")
    language, final = enumeration.SERIES[args.which]
    print(", ".join(map(str, language.counts(final, args.order))))
    if args.verbose:
        print(f"# degree counts {language.unit}")
    return EXIT_OK


def _resolve_knot(args) -> KnotWord:
    start = _start(args, args.tw is not None)
    if args.name is not None:
        named = catalog.lookup(args.name)
        if named is not None:
            return named.tw
        return catalog.knot_of(catalog.KnotName.parse(args.name))
    if args.clr is not None:
        return clr_to_tw(parse_clr(args.clr))
    return parse_tw(args.tw, start)


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
    max_moves = _max_moves(args)
    grammar = grammars.single_tuck_tw_grammar()
    population = grammars.count_by_size(grammar, max_moves).total()  # counted, not listed
    knots = f"the single-tuck knots of at most {max_moves} moves"
    if population > SAMPLE_MAX_POPULATION:
        raise UsageError(f"sample draws from at most {SAMPLE_MAX_POPULATION} knots, but {knots} number {population}")
    if not 0 <= args.count <= population:
        raise UsageError(f"sample count must be between 0 and {population} ({knots}), got {args.count}")
    # Ordered by (moves, text) like the enumeration oracle's list, so a
    # seed draws the same knots; only the knots drawn are parsed.
    texts = grammars.generate(grammar, max_moves)
    rng = random.Random(args.seed)
    for index in sorted(rng.sample(range(len(texts)), args.count)):
        knot = parse_tw(texts[index])
        if args.format == "jsonl":
            print(_knot_line(knot))
        else:
            print(f"{catalog.name_of(knot)}  {knot.serialize()}")
    return EXIT_OK


def cmd_census(args) -> int:
    max_moves = _max_moves(args)
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
    if args.max_windings < 3 or args.full_windings < 2:  # no knot is that short
        raise UsageError("crosscheck needs --max-windings >= 3 (moves) and --full-windings >= 2")
    report = enumeration.cross_check(min(args.max_windings, cap), min(args.full_windings, cap))
    print(report)
    return EXIT_OK if report.ok else EXIT_INVALID


def _add_knot_arguments(parser, with_name=False):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--tw", help="knot in winding notation (T/W/U/')")
    group.add_argument("--clr", help="knot in region notation (L/C/R/U)")
    if with_name:
        group.add_argument("--name", help="knot name (R-1.0) or a registry name (Trinity)")
    parser.add_argument("--start", choices=["L", "C", "R"], help="start region for --tw (default L)")
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
    direction = p.add_mutually_exclusive_group()
    direction.add_argument("--to-clr", action="store_true", help="winding text to region text")
    direction.add_argument("--annotate", action="store_true", help="add i/o marks to region text")
    p.add_argument("--mirror", action="store_true", help="reflect the knot first")
    p.add_argument("--start", choices=["L", "C", "R"], help="start region for --to-clr (default L)")

    p = sub.add_parser("enumerate", help="list all knots of a language")
    p.add_argument("--class", dest="klass", default="single",
                   choices=[name for name, language in enumeration.LANGUAGES.items() if language.listing])
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
    p.add_argument("which", choices=sorted(enumeration.SERIES))
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
                   help="moves bound for the languages counted in moves (default 13)")
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
