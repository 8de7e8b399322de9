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

Each language is declared once, as a :class:`Language` in
:data:`LANGUAGES`, which the CLI, the census and the cross-check read.
The listings are the winding patterns (:func:`pattern_texts`), the
classical knots among them (center-final, carrying exactly the one
final tuck), and :class:`_FullEnumerator`, knots with tucks by their
recursive structure (below): :func:`full_language` lists every depth,
and :func:`single_tuck_knots` the depth-1 slice, the thin-blade knots
whose blocks are all one tucked pair (TTU or WWU).  Knots whose tucks
may hide behind the knot are listed by their grammar alone.

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
from collections.abc import Mapping
from dataclasses import astuple, dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

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
    yield from itertools.chain.from_iterable(_FullEnumerator(max_windings, depth_one=True).values())


def decorate(windings: str, sites) -> str:
    """Winding text with a depth-1 tuck after each winding position in
    ``sites`` (1-based) and the closing tuck after the last winding."""
    parts = [ch + "U" if p in sites else ch for p, ch in enumerate(windings, start=1)]
    return "".join(parts) + "U"


def fm_knots(max_windings: int) -> List[str]:
    """Classical knots as region strings, walked from L: the ``fm`` listing."""
    return tw_texts_to_clr(LANGUAGES["fm"].listing(max_windings))


# ---------------------------------------------------------------------------
# The full language, enumerated structurally.


def _memoised(build):
    # The enumerator's tables share one memo, keyed by (table, size).
    def lookup(self, size: int) -> list:
        if (key := (build.__name__, size)) not in self._memo:
            self._memo[key] = build(self, size)
        return self._memo[key]
    return lookup


class _FullEnumerator(Mapping):
    """Recursive enumeration of the arbitrary-depth language: its members
    by winding count, 2 to ``max_windings``, each bucket listed as it is read.

    ``blocks(m)`` lists every complete block of 2m windings together
    with its net turn; ``interiors(j)`` lists block interiors of 2j
    windings.  Memoised per instance; strings are canonical text, with
    an apostrophe only between two tucks (``TWTTU'UU``, ``TTTTUWWTWUUUU``).
    ``depth_one`` keeps only depth-1 tucks: every interior is empty, so
    the only blocks are the one-pair TTU and WWU.
    """

    def __init__(self, max_windings: int, depth_one: bool = False):
        self._sizes, self._depth_one = range(2, max_windings + 1), depth_one
        self._memo: Dict[Tuple[str, int], list] = {}

    def __getitem__(self, windings: int) -> List[str]:
        if windings not in self._sizes:
            raise KeyError(windings)
        return self.members(windings)

    def __iter__(self):
        return iter(self._sizes)

    def __len__(self):
        return len(self._sizes)

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
        if windings % 2 == 0:
            return list(self.tails(windings))
        return [p + tail for p in ("T", "W") for tail in self.tails(windings - 1)]


def full_language(max_windings: int) -> Mapping[int, List[str]]:
    """Members of the arbitrary-depth language by winding count, each
    bucket listed as it is read, in canonical text.  The listing
    only lists: :func:`cross_check` judges it against the full grammar,
    and fails a line if a member repeats."""
    return _FullEnumerator(max_windings)


def oracle_enumerate(
    max_windings: int, opts: ValidityOptions = DEFAULT_OPTIONS
) -> Iterator[KnotWord]:
    """Every valid knot with at most ``max_windings`` windings, parsed by
    :meth:`Language.knots` from the language the options pick: ``single``
    for a depth cap of 1, ``full`` for none, ``hidden`` for hidden tucks
    (depth 1 only).  Knots that need not end on a tuck are not
    enumerable.  A move cap in ``opts`` caps the winding count at one less.
    """
    if opts.max_moves is not None:
        max_windings = min(max_windings, opts.max_moves - 1)
    if not opts.require_final_tuck or opts.allow_final_center_no_tuck:
        raise NotImplementedError("only knots that end on a tuck are enumerable")
    if opts.max_tuck_depth not in (1, None):
        raise NotImplementedError("only depth cap 1 and unlimited depth are enumerable")
    if opts.allow_hidden_tucks and opts.max_tuck_depth != 1:
        raise NotImplementedError("hidden tucks are only modelled for depth-1 knots")
    name = "hidden" if opts.allow_hidden_tucks else "single" if opts.max_tuck_depth == 1 else "full"
    yield from LANGUAGES[name].knots(max_windings)


# ---------------------------------------------------------------------------
# The languages, each declared once.


@dataclass(frozen=True)
class Language:
    """A knot language as a combinatorial class: a specification and a
    size function (Flajolet & Sedgewick, *Analytic Combinatorics*, Part A).

    ``grammar(final)`` builds its counting grammar, in winding or region
    text, for the knots that end in region ``final`` (all for None).
    ``listing(n)`` is its grammar-free referee to n windings: winding texts
    by winding count (a mapping) or in ascending winding count, or None.
    ``unit`` sizes a member in moves (windings + 1) or windings.  A language
    with ``patterns`` is counted in closed form: they name the regions whose
    winding patterns it counts, in no particular order.  ``series`` names
    each series ``tieknot series`` prints of it, by final region; :func:`cross_check`
    checks each one's grammar to the bound it is given for ``unit``.
    """

    name: str
    noun: str
    grammar: Optional[Callable[[Optional[Region]], grammars.Grammar]]
    listing: Optional[Callable[[int], Iterable]]
    unit: str = "moves"
    patterns: Tuple[Region, ...] = ()
    series: Dict[str, Optional[Region]] = field(default_factory=dict)

    @property
    def shift(self) -> int:
        """A member's size less its winding count."""
        return 1 if self.unit == "moves" else 0

    def counts(self, final: Optional[Region], order: int) -> Series:
        """Its knots that end in ``final`` (all for None) by size, 0..order."""
        if not self.patterns:
            return grammars.count_by_size(self.grammar(final), order)
        turns = [TURN_OF_REGION[region] for region in self.patterns if final in (None, region)]
        return Series(sum(pattern_count(m - self.shift, turn) for turn in turns) if m - self.shift >= 2 else 0
                      for m in range(order + 1))

    def knots(self, max_windings: int) -> Iterator[KnotWord]:
        """Its knots to ``max_windings`` windings, parsed, by winding count
        and then in text order, like every language.  A pattern listing is
        in that order already, so it streams as listed; any other is sorted
        and parsed a bucket at a time, so the first knot does not wait for
        the last bucket (only a grammar builds every bucket first)."""
        if self.patterns:
            yield from map(parse_tw, self.listing(max_windings))
            return
        for bucket in self._buckets(max_windings):
            bucket.sort(key=sort_key)  # each bucket is a fresh list
            yield from map(parse_tw, bucket)

    def _buckets(self, max_windings: int) -> Iterable[List[str]]:
        if self.listing is None:
            sizes = grammars.generate_with_sizes(self.grammar(None), max_windings + self.shift)
            return (list(texts) for _, texts in itertools.groupby(sizes, sizes.get))
        listing = self.listing(max_windings)
        if isinstance(listing, Mapping):
            return listing.values()
        return (list(run) for _, run in itertools.groupby(listing, _letters("TW")))


def _listed(listing) -> dict:
    # A listing's buckets by winding count, each read once; a flat listing is one bucket, under None.
    return dict(listing) if isinstance(listing, Mapping) else {None: list(listing)}


# Names are late-bound, so a listing or grammar replaced on its module is the one read.
LANGUAGES: Dict[str, Language] = {language.name: language for language in (
    # fm's knots all end in the center, so its grammar is only asked for all of them.
    Language("fm", "classical knots", lambda final: grammars.fm_grammar(),
             lambda n: (w + "U" for m in range(2, n + 1) for w in pattern_texts(m)
                       if final_region_of(w) is Region.CENTER),
             patterns=(Region.CENTER,), series={"fm": None}),
    # The paper's winding grammar for every knot, the region grammars by final region.
    Language("single", "single-tuck knots",
             lambda final: grammars.single_tuck_tw_grammar() if final is None
             else grammars.single_tuck_clr_grammar(final),
             lambda n: single_tuck_knots(n),
             series={"single": None, "l-final": Region.LEFT, "r-final": Region.RIGHT, "c-final": Region.CENTER}),
    Language("full", "arbitrary-depth knots", lambda final: grammars.full_grammar(final),
             lambda n: full_language(n), unit="windings", series={"full": None}),
    Language("hidden", "hidden-tuck knots", lambda final: grammars.hidden_tuck_grammar(final), None, unit="windings"),
    Language("windings", "winding patterns", None, lambda n: (w for m in range(2, n + 1) for w in pattern_texts(m)),
             patterns=tuple(Region),
             series={"windings-l": Region.LEFT, "windings-c": Region.CENTER, "windings-r": Region.RIGHT}),
)}

# Each series ``tieknot series`` prints: its language and final region.
SERIES = {name: (language, final) for language in LANGUAGES.values() for name, final in language.series.items()}


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
    and per-region knot columns are the ``windings`` and ``single``
    languages' counts by final region, and the total column the ``full``
    language's, which can be skipped when only the single-tuck side
    matters.  Each is read at n windings in its language's own unit.
    """
    regions = (Region.LEFT, Region.RIGHT, Region.CENTER)  # the column order

    def column(name, final=None):  # a language's counts by winding count
        language = LANGUAGES[name]
        return language.counts(final, max_windings + language.shift)[language.shift:]

    windings = [column("windings", region) for region in regions]
    knots = [column("single", region) for region in regions]
    totals = column("full") if include_full else None
    rows = []
    for n in range(2, max_windings + 1):
        per_region = [series[n] for series in knots]
        total = totals[n] if include_full else 0
        rows.append(CensusRow(n, n + 1, *(series[n] for series in windings), *per_region, sum(per_region), total))
    return rows


def hidden_tuck_counts(max_windings: int) -> Dict[int, int]:
    """Single-depth census when tucks may hide behind the knot.

    Dropping the parity half of T3 (but keeping the window rule) makes
    every equal adjacent pair an optional internal site; the count per
    winding count n, read from the ``hidden`` language's grammar
    (:func:`grammars.hidden_tuck_grammar`), works out to 2 * 3^(n-2).
    """
    series = LANGUAGES["hidden"].counts(None, max_windings)
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


def _in_regions(grammar: grammars.Grammar) -> bool:
    # Whether a grammar writes region text: its walk starts at L.
    return any(grammars.T("L") in items for alternatives in grammar.productions.values() for items in alternatives)


def cross_check(max_moves: int = 13, full_max_windings: int = 13) -> CrossCheckReport:
    """Compare each printed series' grammar with its language's listed
    knots that end in its region (in region text where the grammar
    writes it), bucket by bucket.  ``max_moves`` bounds the languages
    counted in moves (the classical and single-tuck knots), and
    ``full_max_windings`` those counted in windings: the arbitrary-depth
    language grows about ten-fold every two windings.
    """
    bounds = {"moves": max_moves, "windings": full_max_windings}
    lines, listed = [], {}
    for language in LANGUAGES.values():
        if language.grammar is None or language.listing is None:
            continue
        bound = bounds[language.unit]
        buckets = _listed(language.listing(bound - language.shift))
        texts = [text for bucket in buckets.values() for text in bucket]
        listed[language.name] = buckets, texts
        by_final = {None: texts, **{region: [] for region in Region}}
        for text in texts if any(language.series.values()) else ():
            by_final[final_region_of(text)].append(text)
        for final in language.series.values():
            grammar, name = language.grammar(final), f"{language.noun} to {bound} {language.unit}"
            oracle = by_final[final]
            if _in_regions(grammar):
                oracle, size = tw_texts_to_clr(oracle), _letters("LCR", language.shift - 1)
            else:
                size = _letters("TW", language.shift)
            lines.append(_compare_sets(name if final is None else f"{final.name.lower()}-final {name}",
                                       grammars.generate_with_sizes(grammar, bound), oracle, language.unit, size))

    # The stream parses the oracle's texts as listed, so each must be canonical: a U on both sides of every '.
    structural, flat = listed["full"]
    joined = "\n".join(flat)
    lossless = joined.count("'") == joined.count("U'") == joined.count("'U")
    lines.append(CheckLine("canonical apostrophe placement is lossless", lossless, f"{len(flat)} canonical forms"))

    counted = Series(len(structural.get(n, ())) for n in range(full_max_windings + 1))
    lines.append(_compare_counts("arbitrary-depth counts vs grammar series", counted,
                                 LANGUAGES["full"].counts(None, full_max_windings)))

    rows = census(max_moves - 1, include_full=False)  # by moves, from 3
    column = Series((0, 0, 0, *(row.single_tuck_knots for row in rows)))
    lines.append(_compare_counts("census single-tuck column vs grammar series", column,
                                 LANGUAGES["single"].counts(None, max_moves)))

    return CrossCheckReport(tuple(lines))
