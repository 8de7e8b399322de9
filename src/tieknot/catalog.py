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
followed by its last letter again; :mod:`tieknot.enumeration` counts
the patterns of each length, and those shorter, by net turn (#T - #W)
mod 3, which fixes the final region, in closed form.  A rank adds up the
shorter patterns of the class and, at each W of the stem, the same-class
patterns that put a T there instead; :func:`pattern_of` unranks by the
same comparisons letter by letter (the recursive counting method of
Nijenhuis & Wilf, *Combinatorial Algorithms*, 1978).  Both take O(windings)
steps from counts, so any rank names a buildable knot; a bounded memo keeps
recent patterns' ranks for naming.

Pattern ranks depend only on this library's canonical order, so they
are stable here but not comparable to anyone else's published indices;
the tuck-bits component is canonical.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import List, Optional

from . import validity
from .notation import TURN_OF_REGION, KnotWord, Region, RegionWord, _word, parse_tw, tw_to_clr
from .enumeration import PATTERN_SKEW, decorate, depth1_sites, patterns_below


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
        try:  # a region given by its letter is kept as its member
            object.__setattr__(self, "region", Region(self.region))
        except ValueError:
            raise NamingError(f"not a region: {self.region!r}") from None
        if self.pattern_index < 1:
            raise NamingError("pattern index is 1-based")
        if self.tuck_bits < 0:
            raise NamingError("tuck bits must be nonnegative")

    def __str__(self):
        try:
            return f"{self.region._value_}-{self.pattern_index}.{self.tuck_bits}{self.extension}"
        except ValueError:  # a number past Python's int-to-string digit limit
            number = max(self.pattern_index, self.tuck_bits)
            what = "pattern rank" if number == self.pattern_index else "tuck-bit number"
            digits = math.floor((number.bit_length() - 1) * math.log10(2)) + 1
            digits += number >= 10**digits  # the estimate is at most one short
            limit = sys.get_int_max_str_digits()
            message = f"a name whose {what} has {digits} digits cannot be printed (at most {limit})"
            raise NamingError(message) from None

    @classmethod
    def parse(cls, text: str) -> "KnotName":
        """The name ``str`` spells as ``text``; any other spelling is refused."""
        match = _NAME.fullmatch(text)
        if match is not None:
            region, index, bits, extension = match.groups()
            try:
                return cls(region, int(index), int(bits), extension)
            except ValueError:  # a number past Python's int-to-string digit limit
                pass
        raise NamingError(f"not a knot name: {text!r}")


# Exactly the names ``KnotName.__str__`` writes: ASCII digits, no signs,
# separators or leading zeros.
_NAME = re.compile(r"([LCR])-([1-9][0-9]*)\.(0|[1-9][0-9]*)((?:\+p[1-9][0-9]*d[1-9][0-9]*)*)")
_NO_FINAL_SITE = "not a winding pattern: no final depth-1 tuck site"

_BINARY = str.maketrans("TW", "01")


def pattern_rank(windings: str) -> int:
    """1-based rank of a winding pattern within its final-region class,
    ordered by length then alphabetically (T < W).

    The rank counts the shorter patterns of the class and, at each W of
    the stem, the same-class patterns that agree up to there and put a
    T in its place: O(windings) steps, on small integers but for one
    binary read of the stem.
    """
    n = len(windings)
    if n < 2 or windings[-1] != windings[-2]:
        raise NamingError(_NO_FINAL_SITE)
    turn = (n - 2 * windings.count("W")) % 3  # #T - #W
    # A T in place of a W is followed by pattern_count(rest, need) patterns, (2^(rest-1) +
    # PATTERN_SKEW[at]) / 3 with at = 4 need + 3 rest (mod 6): down at a T, up at a W.
    # Each term is whole, so the powers, 2^(rest-1) at each W, add up as one
    # binary number read off the stem but its last letter (W = 1), and only
    # the skews are summed letter by letter.
    head = windings[:-2]
    at, skew = 4 * (turn - 1) + 3 * (n - 1), 0
    for letter in head:
        if letter == "W":
            skew += PATTERN_SKEW[at % 6]
            at += 1
        else:
            at -= 1
    powers = int(head.translate(_BINARY), 2) << 1 if head else 0
    rank = patterns_below(n, turn) + 1 + (powers + skew) // 3
    if windings[-2] == "W" and at % 3 == 1:  # a last T is followed by its repeat, turning 1
        rank += 1
    return rank


_UNCAPPED = validity.ValidityOptions(max_moves=None)


def name_of(knot: KnotWord) -> KnotName:
    """Name a valid knot anchored by a final depth-1 tuck.

    Depth-1 tucks map to the bit pattern over the winding pattern's
    internal sites.  Deeper tucks, should the knot have any, ride in a
    textual extension ``+p<position>d<depth>`` so the name stays
    injective.  Knots without the anchoring shallow final tuck (for
    example a bare depth-2 ending) fall outside the pattern scheme.
    """
    if knot.start != "L":  # a region equals its letter, read faster than the member Region.LEFT
        raise NamingError("names assume the canonical start region L")
    report = validity.validate(knot, _UNCAPPED)
    if not report.valid:
        raise NamingError(f"cannot name an invalid knot: {report.violations[0]}")
    # Refuse knots outside the scheme before ranking: first a pattern
    # without a final depth-1 site (pattern_rank's own check), then one
    # whose final site carries no depth-1 tuck.
    windings, tucks = knot._windings, knot._tucks
    n = len(windings)
    if n < 2 or windings[-1] != windings[-2]:
        raise NamingError(_NO_FINAL_SITE)
    if (n, 1) not in tucks:
        raise NamingError("no final depth-1 tuck to anchor the pattern name")
    # A valid knot ends in a tuck, and each of its depth-1 tucks sits on
    # a depth-1 site: equal windings, an even distance from the end.
    rank, bit_of = _facts_of(windings)
    # Deep tucks ride in item order: towers at one position may stack
    # their depths either way round, and the order distinguishes the knots.
    bits, extension = 0, ""
    for p, d in tucks:
        if d > 1:
            extension += f"+p{p}d{d}"
        elif p < n:
            bits |= bit_of[p]
    # Checked above, so the name is made without KnotName's input checks.
    return _word(KnotName, region=knot._final, pattern_index=rank, tuck_bits=bits, extension=extension)


def _facts_of(windings: str) -> tuple:  # _pattern_facts, memoized only to 64 windings
    return (_pattern_facts if len(windings) <= 64 else _pattern_facts.__wrapped__)(windings)


@lru_cache(maxsize=4096)  # all 4,094 patterns to 13 moves; kept to 64 windings, a few MB
def _pattern_facts(windings: str) -> tuple:  # the rank and each internal site's tuck bit
    return pattern_rank(windings), {p: 1 << i for i, p in enumerate(depth1_sites(windings)[:-1])}


def pattern_of(region: Region, rank: int) -> str:
    """The winding pattern of 1-based ``rank`` in ``region``'s class
    (inverse of :func:`pattern_rank`).

    The class's counts below each length give the pattern's length, then
    each stem letter is a T while the rank left to skip is below the
    number of patterns that put a T there: O(windings) steps.
    """
    if rank < 1:
        raise NamingError("pattern ranks are 1-based")
    turn = TURN_OF_REGION[region]
    remaining = rank - 1
    n = max(2, (3 * remaining).bit_length())  # 3 * patterns_below(n + 1) < 2^n
    while patterns_below(n + 1, turn) <= remaining:  # the class to n windings
        n += 1
    # As in pattern_rank, in thirds: ``left`` is thrice the rank left to
    # skip and ``with_t`` thrice the patterns that put a T here.
    left = 3 * (remaining - patterns_below(n, turn))
    stem, at = [], 4 * (turn - 1) + 3 * (n - 1)
    for bit in range(n - 2, 0, -1):  # 2^bit = 2^(rest-1)
        with_t = (1 << bit) + PATTERN_SKEW[at % 6]
        if left < with_t:
            stem.append("T")
            at -= 1
        else:
            left -= with_t
            stem.append("W")
            at += 1
    stem.append("T" if left == 0 and at % 3 == 1 else "W")  # as in pattern_rank
    return "".join(stem) + stem[-1]


def knot_of(name: KnotName) -> KnotWord:
    """The knot a name denotes (inverse of :func:`name_of`).

    The winding pattern comes from :func:`pattern_of` in O(windings)
    steps.  Only the pure single-depth form (no
    extension) is constructible.
    """
    if name.extension:
        raise NamingError("names with deep-tuck extensions are not constructible")
    windings = pattern_of(name.region, name.pattern_index)
    _, bit_of = _facts_of(windings)  # its internal sites: all but the final one
    if name.tuck_bits >= (1 << len(bit_of)):
        raise NamingError(
            f"tuck bits {name.tuck_bits} out of range: pattern has {len(bit_of)} internal sites"
        )
    chosen = {p for p, bit in bit_of.items() if name.tuck_bits & bit}
    return parse_tw(decorate(windings, chosen))


def symmetry(knot: KnotWord) -> int:
    """|#R - #L| over the region sequence of the knot."""
    regions = tw_to_clr(knot)._text
    rights = regions.count("R")
    lefts = regions.count("L")
    return abs(rights - lefts)


def balance(knot: KnotWord) -> int:
    """Changes between runs of T and of W, tucks ignored: the TW and WT pairs, counted."""
    windings = knot._windings
    return windings.count("TW") + windings.count("WT")


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
