"""Brute-force enumeration of knots, census tables, and cross-checks.

The enumerators here are built without the grammar module so the two
sides can referee each other: winding strings are enumerated directly,
or knots by their recursive block structure.  The census lists
nothing: it reads the winding patterns' closed-form counts
(:func:`pattern_count`, which :mod:`tieknot.catalog` ranks names with)
and the grammars' counting series, and :func:`cross_check` compares
the enumerators with the grammars.  The referee compares texts: the
knots filed under one final region get their region texts from one
call of :func:`~tieknot.notation.tw_texts_to_clr`, which reads their
joined winding texts through a table of fixed-length runs, so a
cross-check parses no knot and builds no word.  The region split and
the conversion stay separate: :func:`final_region_of` files each text
on its own net turn, and each region's conversions are compared with
that region's grammar, so a wrong conversion shows as a mismatch.
The enumerators only list and the referee judges: a set that disagrees,
or an oracle that repeats a text, names its first size bucket that
differs (grammar sizes against the oracle texts' letter counts), both
sides' counts there, and up to three examples and three repeated texts
from it in library order (:func:`sort_key`).

Two enumerators cover the language families:

* :func:`fm_knots` -- classical knots: any winding string whose last two
  windings are equal and whose final region is the center, carrying
  exactly the one final tuck;
* :class:`_FullEnumerator` -- knots with tucks by their recursive
  structure (below): :func:`full_language` lists every depth, and
  :func:`single_tuck_knots` the depth-1 slice, the thin-blade knots
  whose blocks are all one tucked pair (TTU or WWU).  Knots whose tucks
  may hide behind the knot come from :func:`grammars.hidden_tuck_grammar`.

Deep tucks do not combine freely.  A tuck tower (the U runs closing at
one point) and the windings it spans form a block: the block opens with
a bare winding pair, the remainder of its interior is again pairs and
complete blocks, and every block's full window must pass the window
rule.  Texts are canonical: an apostrophe only separates two blocks'
closing U runs.  A knot is an optional single winding, then bare pairs
and blocks, ending on a block.  Treating each tuck in isolation would admit decorations
such as TTUTWUU (a depth-1 tuck inside the opening pair of a depth-2
window) that the language does not contain.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import astuple, dataclass
from typing import Dict, Iterator, List, Tuple

from . import grammars
from .genfunc import Series, compare
from .notation import (
    _CYCLE,
    _CYCLE_INDEX,
    TURN_OF_REGION,
    KnotWord,
    Region,
    parse_tw,
    sort_key,
    tw_texts_to_clr,
)
from .validity import DEFAULT_OPTIONS, ValidityOptions


def pattern_texts(windings: int) -> Iterator[str]:
    """The winding patterns of ``windings`` >= 2 windings, lexicographic:
    every T/W stem, then its last letter again."""
    for stem in itertools.product("TW", repeat=windings - 1):
        yield "".join(stem) + stem[-1]


def final_region_of(text: str, start: Region = Region.LEFT) -> Region:
    """Final region of winding text; tucks and apostrophes are ignored."""
    return _CYCLE[(_CYCLE_INDEX[start] + text.count("T") - text.count("W")) % 3]


def depth1_sites(windings: str) -> List[int]:
    """Positions admitting a depth-1 tuck: equal adjacent windings, at an
    even distance from the end."""
    n = len(windings)
    return [p for p in range(2 + n % 2, n + 1, 2) if windings[p - 2] == windings[p - 1]]


# A winding pattern is a T/W stem, then its last letter again.  TT turns
# by 2 and WW by -2 = 1, and a T put in front turns a pattern by 1 more,
# a W by 1 less, so the counts of m windings by turn t step as (a, b, c)
# -> (b + c, c + a, a + b): Jacobsthal numbers, 3 * count = 2^(m-1) +
# PATTERN_SKEW[(4t + 3m) % 6] for m >= 2, an index that is t mod 3 and m mod 2.
PATTERN_SKEW = (-2, -1, 1, 2, 1, -1)


def pattern_count(windings: int, turn: int) -> int:
    """The patterns of ``windings`` >= 2 windings whose net turn (#T - #W) is ``turn`` mod 3."""
    return ((1 << (windings - 1)) + PATTERN_SKEW[(4 * turn + 3 * windings) % 6]) // 3


def patterns_below(windings: int, turn: int) -> int:
    """The patterns of 2 to ``windings - 1`` windings whose net turn is ``turn`` mod 3."""
    skew = PATTERN_SKEW[(4 * turn + 3 * windings) % 6] if windings % 2 else 0
    return ((1 << (windings - 1)) - 2 - skew) // 3


def single_tuck_knots(max_windings: int) -> Iterator[str]:
    """All depth-1-tuck knots with at most ``max_windings`` windings: the
    depth-1 slice of the structural enumeration, bucket by bucket."""
    enum = _FullEnumerator(depth_one=True)
    for n in range(2, max_windings + 1):
        yield from enum.members(n)


def decorate(windings: str, sites) -> str:
    """Winding text with a depth-1 tuck after each winding position in
    ``sites`` (1-based) and the closing tuck after the last winding."""
    parts = [ch + "U" if p in sites else ch for p, ch in enumerate(windings, start=1)]
    return "".join(parts) + "U"


def fm_knots(max_windings: int) -> Iterator[str]:
    """Classical knots as region strings: center-final winding patterns
    carrying exactly the final tuck, walked from L."""
    for n in range(2, max_windings + 1):
        yield from tw_texts_to_clr(
            [w + "U" for w in pattern_texts(n) if final_region_of(w) is Region.CENTER]
        )


# ---------------------------------------------------------------------------
# The full language, enumerated structurally.


def _memoised(build):
    # The enumerator's tables share one memo, keyed by (table, size).
    def lookup(self, size: int) -> list:
        if (key := (build.__name__, size)) not in self._memo:
            self._memo[key] = build(self, size)
        return self._memo[key]
    return lookup


class _FullEnumerator:
    """Recursive enumeration of the arbitrary-depth language.

    ``blocks(m)`` lists every complete block of 2m windings together
    with its net turn; ``interiors(j)`` lists block interiors of 2j
    windings.  Memoised per instance; strings are canonical text, with
    an apostrophe only between two tucks (``TWTTU'UU``, ``TTTTUWWTWUUUU``).
    ``depth_one`` keeps only depth-1 tucks: every interior is empty, so
    the only blocks are the one-pair TTU and WWU.
    """

    def __init__(self, depth_one: bool = False):
        self._depth_one = depth_one
        self._memo: Dict[Tuple[str, int], list] = {}

    _PAIRS = {"TT": 2, "TW": 0, "WT": 0, "WW": -2}  # each winding pair's net turn, #T - #W

    @_memoised
    def interiors(self, j: int) -> List[Tuple[str, int]]:
        if j == 0:
            return [("", 0)]
        if self._depth_one:
            return []
        out = [(pair + text + "U", turn + net)
               for pair, turn in self._PAIRS.items() for text, net in self.interiors(j - 1)]
        for d in range(1, j + 1):
            for block, block_net in self.blocks(d):  # ' only where the U follows at once
                out += [(block + (text or "'") + "U", block_net + net) for text, net in self.interiors(j - d)]
        return out

    @_memoised
    def blocks(self, m: int) -> List[Tuple[str, int]]:
        # Window rule over the whole block: a T-opening needs #T - #W = 2
        # (mod 3), a W-opening the reverse.
        return [(pair + text + "U", turn + net) for pair, turn in self._PAIRS.items()
                for text, net in self.interiors(m - 1) if (turn + net) % 3 == (2 if pair[0] == "T" else 1)]

    @_memoised
    def tails(self, r: int) -> List[str]:
        """Concatenations (pair | block)* block over exactly r windings."""
        if r < 2 or r % 2:
            return []
        out = [block for block, _ in self.blocks(r // 2)]
        out += [pair + tail for pair in self._PAIRS for tail in self.tails(r - 2)]
        for d in range(1, r // 2):
            out += [block + tail for block, _ in self.blocks(d) for tail in self.tails(r - 2 * d)]
        return out

    def members(self, windings: int) -> List[str]:
        if windings < 2:
            return []
        if windings % 2 == 0:
            return list(self.tails(windings))
        return [p + tail for p in ("T", "W") for tail in self.tails(windings - 1)]


def full_language(max_windings: int) -> Dict[int, List[str]]:
    """Members of the arbitrary-depth language by winding count.

    The texts are canonical (an apostrophe only between two tucks).  The
    listing only lists: :func:`cross_check` judges it against the full
    grammar, and fails a line if a member repeats.
    """
    enum = _FullEnumerator()
    return {n: enum.members(n) for n in range(2, max_windings + 1)}


def oracle_enumerate(
    max_windings: int, opts: ValidityOptions = DEFAULT_OPTIONS
) -> Iterator[KnotWord]:
    """Every valid knot with at most ``max_windings`` windings, parsed.

    Knots with a depth cap of 1 or none come from the structural
    enumeration, one winding count at a time: each bucket's members are
    listed in canonical text and sorted into text order (the duplicate
    check is :func:`cross_check`'s), then parsed one at a time, so the first
    knot does not wait for the last bucket.  Hidden tucks (depth 1 only)
    come from :func:`grammars.hidden_tuck_grammar`, which builds every
    bucket before the first knot goes out.  The order is deterministic:
    ascending winding count, then text order.  Knots that need not end
    on a tuck are not enumerable.  A move cap in ``opts`` caps the
    winding count at one less.
    """
    if opts.max_moves is not None:
        max_windings = min(max_windings, opts.max_moves - 1)
    if not opts.require_final_tuck or opts.allow_final_center_no_tuck:
        raise NotImplementedError("only knots that end on a tuck are enumerable")
    if opts.max_tuck_depth not in (1, None):
        raise NotImplementedError("only depth cap 1 and unlimited depth are enumerable")
    if opts.allow_hidden_tucks:
        if opts.max_tuck_depth != 1:
            raise NotImplementedError("hidden tucks are only modelled for depth-1 knots")
        sizes = grammars.generate_with_sizes(grammars.hidden_tuck_grammar(), max_windings)
        buckets = (list(texts) for _, texts in itertools.groupby(sizes, sizes.get))
    else:
        enum = _FullEnumerator(depth_one=opts.max_tuck_depth == 1)
        buckets = map(enum.members, range(2, max_windings + 1))
    for members in buckets:
        members.sort(key=sort_key)
        for text in members:
            yield parse_tw(text)


# ---------------------------------------------------------------------------
# Census tables.


@dataclass(frozen=True)
class CensusRow:
    """One winding-length bucket of the knot census."""

    winding_count: int
    move_count: int
    left_windings: int
    right_windings: int
    center_windings: int
    left_knots: int
    right_knots: int
    center_knots: int
    single_tuck_knots: int
    total_knots: int

    CSV_HEADER = (
        "windings,moves,left_windings,right_windings,center_windings,"
        "left_knots,right_knots,center_knots,single_tuck_knots,total_knots"
    )

    def csv_line(self) -> str:
        return ",".join(map(str, astuple(self)))

    def to_dict(self) -> dict:
        return dict(zip(self.CSV_HEADER.split(","), astuple(self)))


def census(max_windings: int = 12, include_full: bool = True) -> List[CensusRow]:
    """The knot census by winding count (2 windings = 3 moves, up).

    Every column is counted, so nothing is listed: the winding-pattern
    columns by :func:`pattern_count` at each final region's turn, the
    per-region knot columns from the region-final single-tuck grammars
    at n + 1 moves, and the total column from the full grammar's
    counting series, which can be skipped when only the single-tuck side
    matters.
    """
    regions = (Region.LEFT, Region.RIGHT, Region.CENTER)  # the column order
    knots = [
        grammars.count_by_size(grammars.single_tuck_clr_grammar(region), max_windings + 1)
        for region in regions
    ]
    if include_full:
        totals = grammars.count_by_size(grammars.full_grammar(), max_windings)
    rows = []
    for n in range(2, max_windings + 1):
        windings = [pattern_count(n, TURN_OF_REGION[region]) for region in regions]
        per_region = [series[n + 1] for series in knots]
        total = totals[n] if include_full else 0
        rows.append(CensusRow(n, n + 1, *windings, *per_region, sum(per_region), total))
    return rows


def hidden_tuck_counts(max_windings: int) -> Dict[int, int]:
    """Single-depth census when tucks may hide behind the knot.

    Dropping the parity half of T3 (but keeping the window rule) makes
    every equal adjacent pair an optional internal site; the count per
    winding count n, read from :func:`grammars.hidden_tuck_grammar`'s
    series, works out to 2 * 3^(n-2).
    """
    series = grammars.count_by_size(grammars.hidden_tuck_grammar(), max_windings)
    return {n: series[n] for n in range(2, max_windings + 1)}


# ---------------------------------------------------------------------------
# Cross-checks against the grammar module.


@dataclass(frozen=True)
class CheckLine:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self):
        status = "ok" if self.ok else "MISMATCH"
        text = f"{self.name}: {status}"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass(frozen=True)
class CrossCheckReport:
    lines: tuple

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    def __str__(self):
        return "\n".join(str(line) for line in self.lines)


def _compare_sets(name: str, grammar: dict, oracle: List[str], unit: str, size) -> CheckLine:
    """The grammar's members (with their sizes) against the oracle's list
    of texts (sized by ``size``, in ``unit``), which holds each once.  A
    mismatch names the first size whose buckets differ or whose oracle
    bucket repeats a text, both sides' counts there (repeats counted), up
    to three members that only one side has there, and up to three repeats."""
    left, right = set(grammar), set(oracle)
    if left == right and len(oracle) == len(right):
        return CheckLine(name, True, f"{len(left)} members")
    repeated = {t for t, k in Counter(oracle).items() if k > 1}
    first = min([grammar[t] for t in left - right] + [size(t) for t in (right - left) | repeated])
    extra = sorted((t for t in left - right if grammar[t] == first), key=sort_key)[:3]
    missing = sorted((t for t in right - left if size(t) == first), key=sort_key)[:3]
    repeats = sorted((t for t in repeated if size(t) == first), key=sort_key)[:3]
    counts = sum(n == first for n in grammar.values()), sum(size(t) == first for t in oracle)
    tail = f"; repeated {repeats}" if repeats else ""
    return CheckLine(name, False, f"first mismatch at {first} {unit}: {counts[0]} vs {counts[1]} members; "
                                  f"only-left {extra} / only-right {missing}{tail}")


def _letters(letters: str, plus: int = 0):
    # A text's size from its letter counts: regions or windings, plus one for a winding text's moves.
    return lambda text: sum(map(text.count, letters)) + plus


def _compare_counts(name: str, counted: Series, series: Series) -> CheckLine:
    mismatch = compare(counted, series)
    detail = f"total {counted.total()}"
    return CheckLine(name, mismatch is None, detail if mismatch is None else f"{detail}; {mismatch}")


def cross_check(max_moves: int = 13, full_max_windings: int = 13) -> CrossCheckReport:
    """Compare every enumerator against its grammar, bucket by bucket.

    ``max_moves`` bounds the single-tuck and classical checks by winding
    length; the arbitrary-depth check is bounded by winding count
    separately since its language grows about ten-fold every two windings.
    """
    lines = []

    fm_limit = min(max_moves, 9)
    fm_members = grammars.generate_with_sizes(grammars.fm_grammar(), fm_limit)
    lines.append(
        _compare_sets(f"classical knots to {fm_limit} moves", fm_members, list(fm_knots(fm_limit - 1)),
                      "moves", _letters("LCR"))
    )

    single = grammars.generate_with_sizes(
        grammars.single_tuck_tw_grammar(), max_moves
    )
    oracle = list(single_tuck_knots(max_moves - 1))
    lines.append(
        _compare_sets(f"single-tuck knots to {max_moves} moves", single, oracle, "moves", _letters("TW", 1))
    )

    by_region = {Region.LEFT: [], Region.RIGHT: [], Region.CENTER: []}
    for text in oracle:
        by_region[final_region_of(text)].append(text)
    for region, texts in by_region.items():
        clr = grammars.generate_with_sizes(grammars.single_tuck_clr_grammar(region), max_moves)
        lines.append(
            _compare_sets(
                f"{region.name.lower()}-final single-tuck knots to {max_moves} moves",
                clr,
                tw_texts_to_clr(texts),
                "moves",
                _letters("LCR"),
            )
        )

    full_members = grammars.generate_with_sizes(
        grammars.full_grammar(), full_max_windings
    )
    structural = full_language(full_max_windings)
    flat = [m for members in structural.values() for m in members]
    lines.append(
        _compare_sets(
            f"arbitrary-depth knots to {full_max_windings} windings",
            full_members,
            flat,
            "windings",
            _letters("TW"),
        )
    )
    # The stream parses the oracle's texts as listed, so each must be canonical: a U on both sides of every '.
    joined = "\n".join(flat)
    lines.append(
        CheckLine(
            "canonical apostrophe placement is lossless",
            joined.count("'") == joined.count("U'") == joined.count("'U"),
            f"{len(flat)} canonical forms",
        )
    )

    counted = Series(len(structural.get(n, ())) for n in range(full_max_windings + 1))
    series = grammars.count_by_size(grammars.full_grammar(), full_max_windings)
    lines.append(_compare_counts("arbitrary-depth counts vs grammar series", counted, series))

    rows = census(max_moves - 1, include_full=False)  # by moves, from 3
    column = Series((0, 0, 0, *(row.single_tuck_knots for row in rows)))
    series = grammars.count_by_size(grammars.single_tuck_tw_grammar(), max_moves)
    lines.append(_compare_counts("census single-tuck column vs grammar series", column, series))

    return CrossCheckReport(tuple(lines))

