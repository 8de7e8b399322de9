"""Knot names, the named-knot registry, and aesthetic measures.

A single-depth knot is addressed by its winding pattern and its choice
of internal tucks.  Winding patterns with the same final-tuck region are
ranked by winding count and then alphabetically (T before W); a knot's
name is then ``<region>-<pattern rank>.<tuck bits>`` where bit i-1 of
the tuck bits says whether the i-th potential internal site (counted
from the start of the knot) is tucked.  The Trinity, for instance,
tucks the 2nd of its pattern's internal sites, so its name ends in .2;
the Eldredge tucks the 3rd of four, ending in .4.

Ranks are computed, not looked up.  A winding pattern is a T/W stem
followed by its last letter again, and one table counts the patterns of
each length by net turn (#T - #W) mod 3, which fixes the final region.
A rank adds up the classes of shorter patterns and, at each W of the
stem, the same-class patterns that put a T there instead; unranking
makes the same comparisons letter by letter (the recursive counting
method of Nijenhuis & Wilf, *Combinatorial Algorithms*, 1978).  Both
cost O(windings) table reads, so every rank names a knot that can be
built, however large the rank.

Pattern ranks depend only on this library's canonical order, so they
are stable here but not comparable to anyone else's published indices;
the tuck-bits component is canonical.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import List, Optional

from . import validity
from .notation import (
    KnotWord,
    Region,
    RegionWord,
    Tuck,
    WindDir,
    parse_tw,
    step_region,
    tw_to_clr,
)
from .enumeration import decorate, depth1_sites, final_region_of


class NamingError(ValueError):
    pass


@dataclass(frozen=True)
class KnotName:
    """``<region>-<pattern_index>.<tuck_bits>`` plus an optional textual
    extension for tucks deeper than 1."""

    region: Region
    pattern_index: int
    tuck_bits: int
    extension: str = ""

    def __post_init__(self):
        if self.pattern_index < 1:
            raise NamingError("pattern index is 1-based")
        if self.tuck_bits < 0:
            raise NamingError("tuck bits must be nonnegative")

    def __str__(self):
        return f"{self.region.value}-{self.pattern_index}.{self.tuck_bits}{self.extension}"

    @classmethod
    def parse(cls, text: str) -> "KnotName":
        """The name ``str`` spells as ``text``; any other spelling is refused."""
        match = _NAME.fullmatch(text)
        if match is not None:
            region, index, bits, extension = match.groups()
            try:
                return cls(Region(region), int(index), int(bits), extension)
            except ValueError:  # a number past Python's int-to-string digit limit
                pass
        raise NamingError(f"not a knot name: {text!r}")


# Exactly the names ``KnotName.__str__`` writes: ASCII digits, no signs,
# separators or leading zeros.
_NAME = re.compile(r"([LCR])-([1-9][0-9]*)\.(0|[1-9][0-9]*)((?:\+p[1-9][0-9]*d[1-9][0-9]*)*)")

# The final region of winding text is its start L stepped by the net
# turn #T - #W; patterns are classed by that turn mod 3.
_TURN_OF_REGION = {step_region(Region.LEFT, WindDir.T, turn): turn for turn in range(3)}

# _PATTERNS[m][t]: winding patterns of m windings (a T/W stem, then its
# last letter again) whose net turn is t mod 3.  Row 2 holds TT (turn 2)
# and WW (turn -2 = 1); a T put in front of a pattern turns it by 1 more
# and a W by 1 less, which gives each longer row from the one before.
# Row 1 serves the rank walks: after a stem's final T only its repeat
# can follow, turning by 1.
_PATTERNS = [(0, 0, 0), (0, 1, 0), (0, 1, 1)]
_GROWING = threading.Lock()  # two threads growing at once would append a row twice


def _table(length: int) -> list:
    """The counting table, grown to cover patterns of ``length`` windings."""
    if len(_PATTERNS) <= length:
        with _GROWING:
            while len(_PATTERNS) <= length:
                a, b, c = _PATTERNS[-1]
                _PATTERNS.append((b + c, c + a, a + b))
    return _PATTERNS


@lru_cache(maxsize=None)
def _patterns_before(turn: int, length: int) -> int:
    return sum(row[turn] for row in _table(length)[2:length])


def pattern_rank(windings: str) -> int:
    """1-based rank of a winding pattern within its final-region class,
    ordered by length then alphabetically (T < W).

    The rank counts the shorter patterns of the class and, at each W of
    the stem, the same-class patterns that agree up to there and put a
    T in its place: O(windings) reads of the counting table.
    """
    n = len(windings)
    if n < 2 or windings[-1] != windings[-2]:
        raise NamingError("not a winding pattern: no final depth-1 tuck site")
    turn = (n - 2 * windings.count("W")) % 3  # #T - #W
    table = _table(n)
    rank = _patterns_before(turn, n) + 1
    # The patterns with a T in place of a W are that T, then a pattern of
    # the ``rest`` windings after it turning by ``need``.
    need, rest = turn - 1, n - 1
    for letter in windings[:-1]:
        if letter == "W":
            rank += table[rest][need % 3]
            need += 1
        else:
            need -= 1
        rest -= 1
    return rank


def name_of(knot: KnotWord) -> KnotName:
    """Name a valid knot anchored by a final depth-1 tuck.

    Depth-1 tucks map to the bit pattern over the winding pattern's
    internal sites.  Deeper tucks, should the knot have any, ride in a
    textual extension ``+p<position>d<depth>`` so the name stays
    injective.  Knots without the anchoring shallow final tuck (for
    example a bare depth-2 ending) fall outside the pattern scheme.
    """
    if knot.start is not Region.LEFT:
        raise NamingError("names assume the canonical start region L")
    report = validity.validate(knot, validity.ValidityOptions(max_moves=None))
    if not report.valid:
        raise NamingError(f"cannot name an invalid knot: {report.violations[0]}")
    if not knot.items or not isinstance(knot.items[-1], Tuck):
        raise NamingError("only knots ending in a tuck are named")

    windings = "".join(knot.windings)
    n = len(windings)
    rank = pattern_rank(windings)  # raises when there is no final site
    if (n, 1) not in knot.tucks:
        raise NamingError("no final depth-1 tuck to anchor the pattern name")

    sites = [p for p in depth1_sites(windings) if p < n]
    shallow = {p for p, depth in knot.tucks if depth == 1 and p < n}
    stray = shallow - set(sites)
    if stray:
        raise NamingError(f"internal tuck at {sorted(stray)} is not a depth-1 site")
    bits = 0
    for i, p in enumerate(sites):
        if p in shallow:
            bits |= 1 << i
    # Deep tucks in item order: towers at one position may stack their
    # depths either way round, and the order distinguishes the knots.
    deep = [(p, d) for p, d in knot.tucks if d > 1]
    extension = "".join(f"+p{p}d{d}" for p, d in deep)
    return KnotName(final_region_of(windings), rank, bits, extension)


def knot_of(name: KnotName) -> KnotWord:
    """The knot a name denotes (inverse of :func:`name_of`).

    The pattern is unranked from the counting table: the class sizes
    give its length, then each stem letter is a T while the rank left to
    skip is below the number of patterns that put a T there, O(windings)
    reads in all.  Only the pure single-depth form (no extension) is
    constructible.
    """
    if name.extension:
        raise NamingError("names with deep-tuck extensions are not constructible")
    turn = _TURN_OF_REGION[name.region]
    remaining = name.pattern_index - 1
    # Fewer than 2^(k-1) patterns have under k windings (2^(m-1) have m),
    # so the pattern has at least as many windings as ``remaining`` bits.
    n = max(2, remaining.bit_length())
    remaining -= _patterns_before(turn, n)
    table = _table(n)
    while remaining >= table[n][turn]:
        remaining -= table[n][turn]
        n += 1
        if n == len(table):
            _table(n)
    stem, need = [], turn - 1  # as in pattern_rank
    for rest in range(n - 1, 0, -1):
        with_t = table[rest][need % 3]  # the patterns with a T here
        if remaining < with_t:
            stem.append("T")
            need -= 1
        else:
            remaining -= with_t
            stem.append("W")
            need += 1
    windings = "".join(stem) + stem[-1]
    sites = [p for p in depth1_sites(windings) if p < n]
    if name.tuck_bits >= (1 << len(sites)):
        raise NamingError(
            f"tuck bits {name.tuck_bits} out of range: pattern has {len(sites)} internal sites"
        )
    chosen = {p for i, p in enumerate(sites) if name.tuck_bits & (1 << i)}
    return parse_tw(decorate(windings, chosen))


def symmetry(knot: KnotWord) -> int:
    """|#R - #L| over the region sequence of the knot."""
    regions = tw_to_clr(knot).regions
    rights = sum(1 for r in regions if r is Region.RIGHT)
    lefts = sum(1 for r in regions if r is Region.LEFT)
    return abs(rights - lefts)


def balance(knot: KnotWord) -> int:
    """Number of changes between runs of T and runs of W, tucks ignored."""
    windings = knot.windings
    return sum(1 for a, b in zip(windings, windings[1:]) if a != b)


@dataclass(frozen=True)
class NamedKnot:
    common_name: str
    tw: KnotWord

    @property
    def clr(self) -> RegionWord:
        return tw_to_clr(self.tw)

    @property
    def name(self) -> KnotName:
        return name_of(self.tw)


def registry(extra_path: Optional[str] = None) -> List[NamedKnot]:
    """The named knots shipped with the package, optionally extended.

    The registry file is tab-separated: common name, start region,
    winding text.  Lines starting with ``#`` are comments.
    """
    knots = list(_shipped_registry())
    if extra_path is not None:
        with open(extra_path, encoding="utf-8") as handle:
            knots.extend(_parse_registry(handle.read()))
    return knots


@lru_cache(maxsize=None)
def _shipped_registry() -> tuple:
    """The package's own registry, read and parsed once per process."""
    text = resources.files("tieknot").joinpath("data/registry.tsv").read_text()
    return tuple(_parse_registry(text))


def _parse_registry(text: str):
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        common_name, start, tw = line.split("\t")
        yield NamedKnot(common_name, parse_tw(tw, Region(start)))


def lookup(common_name: str, extra_path: Optional[str] = None) -> Optional[NamedKnot]:
    for knot in registry(extra_path):
        if knot.common_name.lower() == common_name.lower():
            return knot
    return None
