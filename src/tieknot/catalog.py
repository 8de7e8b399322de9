"""Knot names, the named-knot registry, and aesthetic measures.

A single-depth knot is addressed by its winding pattern and its choice
of internal tucks.  Winding patterns with the same final-tuck region are
ranked by winding count and then alphabetically (T before W); a knot's
name is then ``<region>-<pattern rank>.<tuck bits>`` where bit i-1 of
the tuck bits says whether the i-th potential internal site (counted
from the start of the knot) is tucked.  The Trinity, for instance,
tucks the 2nd of its pattern's internal sites, so its name ends in .2;
the Eldredge tucks the 3rd of four, ending in .4.

Pattern ranks depend only on this library's canonical order, so they
are stable here but not comparable to anyone else's published indices;
the tuck-bits component is canonical.
"""

from __future__ import annotations

import itertools
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
    parse_tw,
    tw_to_clr,
)
from .enumeration import decorate, depth1_sites, final_region_of, winding_strings


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
        try:
            head, bits = text.split(".", 1)
            region, index = head.split("-", 1)
            if bits and not bits.isdigit():
                raise ValueError
            return cls(Region(region), int(index), int(bits))
        except ValueError as exc:
            raise NamingError(f"not a knot name: {text!r}") from exc


@lru_cache(maxsize=None)
def _pattern_class(region: Region, length: int) -> tuple:
    """Winding patterns of one length and final region, alphabetical."""
    return tuple(
        w
        for w in winding_strings(length)
        if w[-1] == w[-2] and final_region_of(w) is region
    )


@lru_cache(maxsize=None)
def _patterns_before(region: Region, length: int) -> int:
    return sum(len(_pattern_class(region, m)) for m in range(2, length))


def pattern_rank(windings: str) -> int:
    """1-based rank of a winding pattern within its final-region class,
    ordered by length then alphabetically (T < W)."""
    n = len(windings)
    if n < 2 or windings[-1] != windings[-2]:
        raise NamingError("not a winding pattern: no final depth-1 tuck site")
    region = final_region_of(windings)
    return _patterns_before(region, n) + _pattern_class(region, n).index(windings) + 1


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

    Only the pure single-depth form (no extension) is constructible.
    """
    if name.extension:
        raise NamingError("names with deep-tuck extensions are not constructible")
    remaining = name.pattern_index - 1
    for length in itertools.count(2):
        group = _pattern_class(name.region, length)
        if remaining < len(group):
            windings = group[remaining]
            break
        remaining -= len(group)
    n = len(windings)
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
