"""Brute-force enumeration of knots, census tables, and cross-checks.

The enumerators here are built without the grammar module so the two
sides can referee each other: winding strings are enumerated directly
and decorated with tucks according to the validity rules.  Two places
use the grammars: :func:`cross_check`, which compares the two sides,
and the total column of :func:`census`, which only needs the
arbitrary-depth counts and takes them from the grammar's counting
series (the cross-check and the test suite hold that series to the
structural enumeration).

Three enumerators cover the language families:

* :func:`fm_knots` -- classical knots: any winding string whose last two
  windings are equal and whose final region is the center, carrying
  exactly the one final tuck;
* :func:`single_tuck_knots` -- thin-blade knots with depth-1 tucks: each
  valid internal site is independently tucked or not, and the final
  site must be tucked;
* :func:`full_language` -- knots with arbitrary-depth tucks, enumerated
  by their recursive structure (below).

Deep tucks do not combine freely.  A tuck tower (the U runs closing at
one point) and the windings it spans form a block: the block opens with
a bare winding pair, the remainder of its interior is again pairs and
complete blocks (an apostrophe separating a finished block from what
follows), and every block's full window must pass the window rule.  A
knot is an optional single winding, then bare pairs and blocks, ending
on a block.  Treating each tuck in isolation would admit decorations
such as TTUTWUU (a depth-1 tuck inside the opening pair of a depth-2
window) that the language does not contain.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import astuple, dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from . import grammars
from .notation import (
    KnotWord,
    Region,
    WindDir,
    canonicalize_tw,
    parse_tw,
    sort_key,
    step_region,
    tw_to_clr,
)
from .validity import DEFAULT_OPTIONS, ValidityOptions, tuck_parity_ok


def winding_strings(length: int) -> Iterator[str]:
    """All T/W strings of exactly ``length`` windings, lexicographic."""
    for combo in itertools.product("TW", repeat=length):
        yield "".join(combo)


def final_region_of(text: str, start: Region = Region.LEFT) -> Region:
    """Final region of winding text; tucks and apostrophes are ignored."""
    return step_region(start, WindDir.T, text.count("T") - text.count("W"))


def depth1_sites(windings: str, opts: ValidityOptions = DEFAULT_OPTIONS) -> List[int]:
    """Positions admitting a depth-1 tuck: equal adjacent windings, at an
    even distance from the end unless hidden tucks are allowed."""
    n = len(windings)
    out = []
    for position in range(2, n + 1):
        if windings[position - 2] != windings[position - 1]:
            continue
        if not opts.allow_hidden_tucks and not tuck_parity_ok(n, position):
            continue
        out.append(position)
    return out


def winding_patterns(max_windings: int) -> Dict[Region, List[str]]:
    """All winding patterns (strings ending on a depth-1 tuck site) with
    at most ``max_windings`` windings, keyed by final region."""
    out = {Region.LEFT: [], Region.RIGHT: [], Region.CENTER: []}
    for n in range(2, max_windings + 1):
        for w in winding_strings(n):
            if w[-1] == w[-2]:
                out[final_region_of(w)].append(w)
    return out


def single_tuck_knots(
    max_windings: int, opts: ValidityOptions = DEFAULT_OPTIONS
) -> Iterator[str]:
    """All depth-1-tuck knots with at most ``max_windings`` windings.

    Every subset of the internal depth-1 sites gives a distinct knot;
    the final site carries the mandatory closing tuck.
    """
    for n in range(2, max_windings + 1):
        for w in winding_strings(n):
            if w[-1] != w[-2]:
                continue
            internal = [p for p in depth1_sites(w, opts) if p < n]
            for chosen in itertools.chain.from_iterable(
                itertools.combinations(internal, k) for k in range(len(internal) + 1)
            ):
                yield decorate(w, set(chosen))


def decorate(windings: str, sites) -> str:
    """Winding text with a depth-1 tuck after each winding position in
    ``sites`` (1-based) and the closing tuck after the last winding."""
    parts = [ch + "U" if p in sites else ch for p, ch in enumerate(windings, start=1)]
    return "".join(parts) + "U"


def fm_knots(max_windings: int) -> Iterator[str]:
    """Classical knots as region strings: center-final winding patterns
    carrying exactly the final tuck, walked from L."""
    for n in range(2, max_windings + 1):
        for w in winding_strings(n):
            if w[-1] == w[-2] and final_region_of(w) is Region.CENTER:
                yield _tw_text_to_clr(w + "U")


# ---------------------------------------------------------------------------
# The full language, enumerated structurally.


class _FullEnumerator:
    """Recursive enumeration of the arbitrary-depth language.

    ``blocks(m)`` lists every complete block of 2m windings together
    with its winding tally; ``interiors(j)`` lists block interiors of 2j
    windings.  Memoised per instance; strings are the canonical text of
    the knots (the apostrophe placement follows the block structure).
    """

    def __init__(self):
        self._blocks: Dict[int, List[Tuple[str, int]]] = {}
        self._interiors: Dict[int, List[Tuple[str, int]]] = {}
        self._tails: Dict[int, List[str]] = {}

    _PAIRS = ("TT", "TW", "WT", "WW")

    @staticmethod
    def _net(pair: str) -> int:
        return pair.count("T") - pair.count("W")

    def interiors(self, j: int) -> List[Tuple[str, int]]:
        if j in self._interiors:
            return self._interiors[j]
        out: List[Tuple[str, int]] = []
        if j == 0:
            out.append(("", 0))
        else:
            for pair in self._PAIRS:
                for text, net in self.interiors(j - 1):
                    out.append((pair + text + "U", self._net(pair) + net))
            for d in range(1, j + 1):
                for block, block_net in self.blocks(d):
                    for text, net in self.interiors(j - d):
                        out.append((block + "'" + text + "U", block_net + net))
        self._interiors[j] = out
        return out

    def blocks(self, m: int) -> List[Tuple[str, int]]:
        if m in self._blocks:
            return self._blocks[m]
        out: List[Tuple[str, int]] = []
        for pair in self._PAIRS:
            for text, net in self.interiors(m - 1):
                total = self._net(pair) + net
                # Window rule over the whole block: a T-opening needs
                # #T - #W = 2 (mod 3), a W-opening the reverse.
                if pair[0] == "T" and total % 3 == 2:
                    out.append((pair + text + "U", total))
                elif pair[0] == "W" and (-total) % 3 == 2:
                    out.append((pair + text + "U", total))
        self._blocks[m] = out
        return out

    def tails(self, r: int) -> List[str]:
        """Concatenations (pair | block)* block over exactly r windings."""
        if r in self._tails:
            return self._tails[r]
        out: List[str] = []
        if r >= 2 and r % 2 == 0:
            for block, _ in self.blocks(r // 2):
                out.append(block)
            for pair in self._PAIRS:
                for tail in self.tails(r - 2):
                    out.append(pair + tail)
            for d in range(1, (r - 2) // 2 + 1):
                for block, _ in self.blocks(d):
                    for tail in self.tails(r - 2 * d):
                        out.append(block + tail)
        self._tails[r] = out
        return out

    def members(self, windings: int) -> List[str]:
        if windings < 2:
            return []
        if windings % 2 == 0:
            return list(self.tails(windings))
        return [p + tail for p in ("T", "W") for tail in self.tails(windings - 1)]


def full_language(max_windings: int, canonical: bool = False) -> Dict[int, List[str]]:
    """Members of the arbitrary-depth language by winding count.

    The raw texts separate every finished inner tuck with an apostrophe,
    even ahead of a winding; ``canonical`` rewrites them with the
    canonical placement (separators only between adjacent tucks).  In
    either form the enumeration is asserted duplicate-free, which checks
    both the structural recursion and, for the canonical form, that the
    rewrite loses nothing.
    """
    enum = _FullEnumerator()
    out = {}
    for n in range(2, max_windings + 1):
        members = enum.members(n)
        if canonical:
            members = [canonicalize_tw(m) for m in members]
        assert len(members) == len(set(members)), f"duplicate member at {n} windings"
        out[n] = members
    return out


def oracle_enumerate(
    max_windings: int, opts: ValidityOptions = DEFAULT_OPTIONS
) -> List[KnotWord]:
    """Every valid knot with at most ``max_windings`` windings, parsed.

    With a depth cap of 1 this decorates winding strings site by site;
    without a cap it enumerates the recursive block structure.  Results
    are deterministic: ascending winding count, then text order.
    """
    texts: List[Tuple[int, str]] = []
    if opts.max_tuck_depth == 1:
        for text in single_tuck_knots(max_windings, opts):
            texts.append((_winding_count(text), text))
    elif opts.max_tuck_depth is None:
        if opts.allow_hidden_tucks:
            raise NotImplementedError(
                "hidden tucks are only modelled for depth-1 knots"
            )
        for n, members in full_language(max_windings, canonical=True).items():
            texts.extend((n, m) for m in members)
    else:
        raise NotImplementedError(
            "only depth cap 1 and unlimited depth are enumerable"
        )
    texts.sort(key=lambda pair: (pair[0], sort_key(pair[1])))
    return [parse_tw(text) for _, text in texts]


def _winding_count(text: str) -> int:
    return sum(1 for c in text if c in "TW")


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

    Winding-pattern counts and per-final-region single-tuck counts come
    from the direct enumerators; the total column counts the
    arbitrary-depth language with the full grammar's counting series and
    can be skipped when only the single-tuck side matters.
    """
    # Pattern and knot tallies keyed by (final region, winding count).
    windings, knots = Counter(), Counter()
    for region, strings in winding_patterns(max_windings).items():
        for w in strings:
            n = len(w)
            windings[region, n] += 1
            knots[region, n] += 2 ** len([p for p in depth1_sites(w) if p < n])
    if include_full:
        totals = grammars.count_by_size(grammars.full_grammar(), max_windings)
    L, R, C = Region.LEFT, Region.RIGHT, Region.CENTER
    return [
        CensusRow(
            winding_count=n,
            move_count=n + 1,
            left_windings=windings[L, n],
            right_windings=windings[R, n],
            center_windings=windings[C, n],
            left_knots=knots[L, n],
            right_knots=knots[R, n],
            center_knots=knots[C, n],
            single_tuck_knots=knots[L, n] + knots[R, n] + knots[C, n],
            total_knots=totals[n] if include_full else 0,
        )
        for n in range(2, max_windings + 1)
    ]


def hidden_tuck_counts(max_windings: int) -> Dict[int, int]:
    """Single-depth census when tucks may hide behind the knot.

    Dropping the parity half of T3 (but keeping the window rule) makes
    every equal adjacent pair an optional internal site; the count per
    winding count n works out to 2 * 3^(n-2).
    """
    opts = ValidityOptions(allow_hidden_tucks=True)
    out = {n: 0 for n in range(2, max_windings + 1)}
    for text in single_tuck_knots(max_windings, opts):
        out[_winding_count(text)] += 1
    return out


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


def _compare_sets(name: str, left: Iterable[str], right: Iterable[str]) -> CheckLine:
    left, right = set(left), set(right)
    if left == right:
        return CheckLine(name, True, f"{len(left)} members")
    extra = sorted(left - right)[:3]
    missing = sorted(right - left)[:3]
    return CheckLine(
        name, False, f"only-left {extra} / only-right {missing}"
    )


def cross_check(max_moves: int = 13, full_max_windings: int = 13) -> CrossCheckReport:
    """Compare every enumerator against its grammar, bucket by bucket.

    ``max_moves`` bounds the single-tuck and classical checks by winding
    length; the arbitrary-depth check is bounded by winding count
    separately since its language grows about ten-fold every two windings.
    """
    lines = []

    fm_limit = min(max_moves, 9)
    fm_members = grammars.generate(grammars.fm_grammar(), fm_limit)
    lines.append(
        _compare_sets(f"classical knots to {fm_limit} moves", fm_members, fm_knots(fm_limit - 1))
    )

    single = grammars.generate_with_sizes(
        grammars.single_tuck_tw_grammar(), max_moves
    )
    oracle = list(single_tuck_knots(max_moves - 1))
    lines.append(_compare_sets(f"single-tuck knots to {max_moves} moves", single, oracle))

    by_region = {Region.LEFT: [], Region.RIGHT: [], Region.CENTER: []}
    for text in oracle:
        by_region[final_region_of(text)].append(text)
    for region, texts in by_region.items():
        clr = grammars.generate(grammars.single_tuck_clr_grammar(region), max_moves)
        lines.append(
            _compare_sets(
                f"{region.name.lower()}-final single-tuck knots to {max_moves} moves",
                clr,
                map(_tw_text_to_clr, texts),
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
        )
    )
    canonical = {canonicalize_tw(m) for m in flat}
    lines.append(
        CheckLine(
            "canonical apostrophe placement is lossless",
            len(canonical) == len(flat),
            f"{len(canonical)} canonical forms",
        )
    )

    series = grammars.count_by_size(grammars.full_grammar(), full_max_windings)
    per_bucket_ok = all(
        series[n] == len(structural.get(n, ())) for n in range(2, full_max_windings + 1)
    )
    lines.append(
        CheckLine(
            "arbitrary-depth counts vs grammar series",
            per_bucket_ok,
            f"total {sum(len(v) for v in structural.values())}",
        )
    )

    single_series = grammars.count_by_size(
        grammars.single_tuck_tw_grammar(), max_moves
    )
    rows = census(max_moves - 1, include_full=False)
    census_ok = all(single_series[row.move_count] == row.single_tuck_knots for row in rows)
    lines.append(
        CheckLine(
            "census single-tuck column vs grammar series",
            census_ok,
            f"total {sum(r.single_tuck_knots for r in rows)}",
        )
    )

    return CrossCheckReport(tuple(lines))


def _tw_text_to_clr(text: str) -> str:
    return tw_to_clr(parse_tw(text)).serialize()
