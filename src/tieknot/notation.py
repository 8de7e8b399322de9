"""Tie-knot notation: winding words, region words, and conversions.

A tie-knot is described by the sequence of moves the active blade makes
around the passive one.  Two equivalent notations are supported:

* the winding notation over ``T`` (turnwise), ``W`` (widdershins) and
  ``U`` (tuck), with a start region and an apostrophe separating tucks
  that land back to back, e.g. ``TWWWTTTUTTU`` (the Trinity);
* the region notation over ``L``, ``C``, ``R`` and ``U``, optionally
  annotated with ``i``/``o`` orientation marks, e.g. ``LCLRCRLCURLU``.

The torso is divided into Left, Center and Right regions.  A turnwise
winding advances one step along the cycle L -> C -> R -> L; widdershins
is the inverse.  ``U`` tucks the blade under a bow laid earlier: a run
of k consecutive ``U`` characters is a single depth-k tuck going under
the bow made 2k windings ago.  Distinct tucks at the same point are
separated by ``'``.

Item model.  A :class:`KnotWord` holds a start region and a tuple of
items, each a :class:`WindDir` member (a winding, which is itself the
one-letter string ``"T"`` or ``"W"``) or a :class:`Tuck`.  The word
checks its items once, on construction, and records its windings and
its ``(position, depth)`` tucks in the same walk.  Its other views are
computed once, on first use, and kept on the word: its canonical text
(which :func:`parse_tw` knows already, since the whitespace-free input
is that text) and its :class:`RegionWord`, whose one walk also writes
the region text.  Kept views are not fields, so they play no part in
``==``, ``hash`` or ``repr``; a word made anew (by :func:`mirror` or
``dataclasses.replace``) starts without them.  A :class:`RegionWord`
holds :class:`Visit` and :class:`Tuck` items.  Both notations share one
reader for U runs and apostrophes and differ only in their letters.
Beside :func:`tw_to_clr`, :func:`tw_text_to_clr` walks winding text
from L straight to region text and builds no word (the cross-checks').
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Union


class NotationError(ValueError):
    """Raised for text that is not well-formed in either notation."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at index {position})"
        super().__init__(message)
        self.position = position


class Region(str, Enum):
    """One of the three torso regions the hanging blade can occupy."""

    LEFT = "L"
    CENTER = "C"
    RIGHT = "R"

    def __str__(self):
        return self.value


class WindDir(str, Enum):
    """Winding direction: turnwise (T) or widdershins (W)."""

    T = "T"
    W = "W"

    def __str__(self):
        return self.value


class Orientation(str, Enum):
    """Whether a move passes in front of (out) or behind (in) the knot."""

    IN = "i"
    OUT = "o"

    def __str__(self):
        return self.value


# The turnwise cycle.  From L a T takes the blade to C and a W to R;
# every other transition follows by rotating this cycle.
_CYCLE = (Region.LEFT, Region.CENTER, Region.RIGHT)
_CYCLE_INDEX = {r: i for i, r in enumerate(_CYCLE)}


def step_region(region: Region, direction: WindDir, times: int = 1) -> Region:
    """Advance ``region`` by ``times`` windings in ``direction``."""
    delta = times if direction is WindDir.T else -times
    return _CYCLE[(_CYCLE_INDEX[region] + delta) % 3]


# The final region of winding text is its start L stepped by the net
# turn #T - #W; knots and winding patterns are classed by that turn mod 3.
TURN_OF_REGION = {step_region(Region.LEFT, WindDir.T, turn): turn for turn in range(3)}


def mirror_region(region: Region) -> Region:
    """Reflect left/right; the center is its own mirror image."""
    if region is Region.LEFT:
        return Region.RIGHT
    if region is Region.RIGHT:
        return Region.LEFT
    return Region.CENTER


def mirror_direction(direction: WindDir) -> WindDir:
    return WindDir.W if direction is WindDir.T else WindDir.T


@dataclass(frozen=True)
class Tuck:
    """A single tuck under the bow made ``2 * depth`` windings ago."""

    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"tuck depth must be >= 1, got {self.depth}")

    def __str__(self):
        return "U" * self.depth


KnotItem = Union[WindDir, Tuck]

# Tucks are immutable, so the parser hands out one instance per depth.
_shared_tuck = lru_cache(maxsize=64)(Tuck)


def _keep(word, view: str, value):
    """Store a derived view on a frozen word, outside its fields."""
    object.__setattr__(word, view, value)
    return value


def _net_turns(windings: tuple) -> int:
    """Net turnwise steps #T - #W of a tuple of winding directions."""
    return windings.count(WindDir.T) - windings.count(WindDir.W)


_SORT_TABLE = str.maketrans("TWLCRU'", "0123456")


def sort_key(text: str) -> str:
    """Order knot text by the alphabet T<W<U<' (L<C<R<U<' for region words)."""
    return text.translate(_SORT_TABLE)


def _serialize(items) -> str:
    """Items as text, with an apostrophe between two adjacent tucks."""
    parts = []
    previous_tuck = False
    for item in items:
        is_tuck = isinstance(item, Tuck)
        if is_tuck and previous_tuck:
            parts.append("'")
        parts.append(str(item))
        previous_tuck = is_tuck
    return "".join(parts)


def _kept_text(word) -> str:
    """The text of a knot or region word, serialized on first use only."""
    text = word._text
    if text is None:
        text = _keep(word, "_text", _serialize(word.items))
    return text


@dataclass(frozen=True)
class KnotMetrics:
    """Size measures of a knot word.

    ``move_count`` counts region symbols (the winding length used for
    census bucketing) and is always ``winding_count + 1``; the start
    region itself is the first move.  ``symbol_count`` counts winding
    letters plus U characters, excluding apostrophes, which are
    punctuation rather than moves.
    """

    winding_count: int
    move_count: int
    symbol_count: int
    tuck_count: int
    max_tuck_depth: int
    net_turn: int


@dataclass(frozen=True)
class KnotWord:
    """A knot in winding notation: a start region plus winds and tucks."""

    start: Region = Region.LEFT
    items: tuple = ()

    # Views kept on first use (not fields: no part of ==, hash or repr).
    _text = None
    _region_word = None

    def __post_init__(self):
        windings, tucks = [], []
        for item in self.items:
            if isinstance(item, WindDir):
                windings.append(item)
            elif isinstance(item, Tuck):
                if not windings:
                    raise NotationError("tuck before any winding")
                tucks.append((len(windings), item.depth))
            else:
                raise TypeError(f"not a knot item: {item!r}")
        object.__setattr__(self, "_windings", tuple(windings))
        object.__setattr__(self, "_tucks", tuple(tucks))

    @property
    def windings(self) -> tuple:
        return self._windings

    @property
    def winding_count(self) -> int:
        return len(self._windings)

    @property
    def move_count(self) -> int:
        return len(self._windings) + 1

    @property
    def tucks(self) -> tuple:
        """All tucks as ``(position, depth)`` pairs.

        The position of a tuck is the index (1-based) of the winding it
        immediately follows; several tucks may share a position.
        """
        return self._tucks

    def metrics(self) -> KnotMetrics:
        windings = self._windings
        depths = [depth for _, depth in self._tucks]
        return KnotMetrics(
            winding_count=len(windings),
            move_count=len(windings) + 1,
            symbol_count=len(windings) + sum(depths),
            tuck_count=len(depths),
            max_tuck_depth=max(depths, default=0),
            net_turn=_net_turns(windings) % 3,
        )

    def serialize(self) -> str:
        """Canonical text: winds as letters, tucks as U runs, adjacent
        tucks separated by a single apostrophe."""
        return _kept_text(self)

    def __str__(self):
        return self.serialize()


@dataclass(frozen=True)
class Visit:
    """One stay of the active blade in a region, optionally oriented."""

    region: Region
    orientation: Optional[Orientation] = None

    def __str__(self):
        mark = self.orientation.value if self.orientation else ""
        return self.region.value + mark


RegionItem = Union[Visit, Tuck]


@dataclass(frozen=True)
class RegionWord:
    """A knot in region notation: visits interleaved with tucks."""

    items: tuple = ()

    _text = None  # kept on first use, as on a KnotWord

    @property
    def visits(self) -> tuple:
        return tuple(i for i in self.items if isinstance(i, Visit))

    @property
    def regions(self) -> tuple:
        return tuple(v.region for v in self.visits)

    def serialize(self) -> str:
        return _kept_text(self)

    def __str__(self):
        return self.serialize()


def _read_items(text: str, tokens: re.Pattern, letters: dict, letter_name: str) -> tuple:
    """Items of whitespace-free knot text in either notation.

    ``tokens`` splits the text into U runs, letters and single other
    characters; ``letters`` maps each letter token to its item.  A run of
    k consecutive ``U`` becomes one depth-k tuck and needs a preceding
    letter (``letter_name`` names it in the error); an apostrophe
    separates two tucks at one point, so it must sit between two ``U``
    characters.  Errors carry the index in the text.
    """
    items, index = [], 0
    for symbol in tokens.findall(text):
        item = letters.get(symbol)
        if item is not None:
            items.append(item)
        elif symbol[0] == "U":
            if not items:
                raise NotationError(f"tuck before any {letter_name}", index)
            items.append(_shared_tuck(len(symbol)))
        elif symbol == "'":
            if text[index - 1 : index] != "U" or text[index + 1 : index + 2] != "U":
                raise NotationError("' must sit between two U characters", index)
        else:
            raise NotationError(f"unexpected character {symbol!r}", index)
        index += len(symbol)
    return tuple(items)


_TW_TOKENS = re.compile(r"U+|.", re.DOTALL)
_TW_LETTERS = {d.value: d for d in WindDir}


def parse_tw(text: str, start: Region = Region.LEFT) -> KnotWord:
    """Parse winding notation into a :class:`KnotWord`.

    Accepts the characters ``T``, ``W``, ``U`` and ``'``; whitespace
    carries no meaning and is dropped before parsing.  A run of k
    consecutive ``U`` becomes one depth-k tuck; an apostrophe ends a run
    so that distinct tucks at the same point stay distinct, and it must
    sit between two ``U`` characters.  A tuck needs at least one
    preceding winding.  The empty string parses to an empty word (which
    is not by itself a valid knot).
    """
    text = "".join(text.split())
    knot = KnotWord(start=start, items=_read_items(text, _TW_TOKENS, _TW_LETTERS, "winding"))
    _keep(knot, "_text", text)  # canonical: an apostrophe parses only between two tucks
    return knot


def canonicalize_tw(text: str) -> str:
    """Canonical apostrophe placement: keep a ``'`` only between two
    adjacent tucks (a U on both sides).

    Winding text produced structurally (for example by the
    arbitrary-depth grammar) may carry a separator after every finished
    tuck, including before a winding, where it is redundant: the tuck
    grouping is already determined by the U runs.  Dropping those
    separators never merges two runs, and on the knot languages handled
    here the map is injective (the cross-checks verify this).
    """
    kept = []
    for index, ch in enumerate(text):
        if ch == "'":
            if index == 0 or text[index - 1] != "U" or index + 1 >= len(text):
                raise NotationError("' must follow a tuck", index)
            if text[index + 1] != "U":
                continue
        kept.append(ch)
    return "".join(kept)


_CLR_TOKENS = re.compile(r"U+|[LCR][io]?|.", re.DOTALL)
_CLR_LETTERS = {
    str(visit): visit
    for visit in (Visit(r, o) for r in Region for o in (None, *Orientation))
}


def parse_clr(text: str) -> RegionWord:
    """Parse region notation into a :class:`RegionWord`.

    Accepts ``L``, ``C``, ``R`` with optional ``i``/``o`` suffixes, plus
    ``U`` runs and apostrophes with the same grouping rules as
    :func:`parse_tw`; whitespace is dropped.  Adjacency violations (a
    repeated region) are a matter for validation, not parsing.
    """
    text = "".join(text.split())
    return RegionWord(items=_read_items(text, _CLR_TOKENS, _CLR_LETTERS, "region visit"))


def infer_orientations(word: RegionWord) -> RegionWord:
    """Recover the in/out annotation of every visit by backtracking.

    Non-tuck moves alternate between inwards and outwards, and the move
    laid just before a tuck must pass in front of the knot, so anchoring
    "out" on the visit preceding the last tuck determines every other
    orientation.  A word without any tuck has no anchor and cannot be
    oriented (it also breaks the rule that a knot ends on a tuck or a
    center visit).
    """
    last_tuck = None
    for i, item in enumerate(word.items):
        if isinstance(item, Tuck):
            last_tuck = i
    if last_tuck is None:
        raise NotationError("no tuck to anchor orientations (word cannot end a knot)")

    visit_indices = [i for i, item in enumerate(word.items) if isinstance(item, Visit)]
    anchor = None
    for rank, i in enumerate(visit_indices):
        if i < last_tuck:
            anchor = rank
    if anchor is None:
        raise NotationError("tuck before any region visit")

    oriented = list(word.items)
    for rank, i in enumerate(visit_indices):
        orientation = Orientation.OUT if (anchor - rank) % 2 == 0 else Orientation.IN
        oriented[i] = Visit(word.items[i].region, orientation)
    return RegionWord(items=tuple(oriented))


_VISITS = tuple(Visit(region) for region in _CYCLE)
_CYCLE_LETTERS = "".join(region.value for region in _CYCLE)
_TURN = {WindDir.T: 1, WindDir.W: 2}  # steps along the cycle, mod 3
_DIRECTION = (None, WindDir.T, WindDir.W) * 2  # by cycle index to - from, -2 to 2


def tw_to_clr(knot: KnotWord) -> RegionWord:
    """Convert winding notation to region notation.

    The first visit is the start region; every winding appends the next
    region along (T) or against (W) the turnwise cycle; tucks copy
    through unchanged.  One walk writes the items and the text, and the
    word is kept on the knot, so a second call is a lookup.
    """
    word = knot._region_word
    if word is not None:
        return word
    index = _CYCLE.index(knot.start)
    items, letters = [_VISITS[index]], [_CYCLE_LETTERS[index]]
    previous_tuck = False
    for item in knot.items:
        if item.__class__ is Tuck:
            if previous_tuck:
                letters.append("'")
            letters.append("U" * item.depth)
            items.append(item)
            previous_tuck = True
        else:
            index = (index + _TURN[item]) % 3
            letters.append(_CYCLE_LETTERS[index])
            items.append(_VISITS[index])
            previous_tuck = False
    word = RegionWord(items=tuple(items))
    _keep(word, "_text", "".join(letters))
    return _keep(knot, "_region_word", word)


def tw_text_to_clr(text: str) -> str:
    """``tw_to_clr(parse_tw(text)).serialize()`` for whitespace-free
    winding text that :func:`parse_tw` accepts, built without a word:
    from L, each ``T``/``W`` writes the next region, and ``U`` and ``'``
    copy through."""
    index, letters = 0, [_CYCLE_LETTERS[0]]  # the walk starts at L
    for ch in text:
        turn = _TURN.get(ch)
        if turn is None:
            letters.append(ch)
        else:
            index = (index + turn) % 3
            letters.append(_CYCLE_LETTERS[index])
    return "".join(letters)


def clr_to_tw(word: RegionWord) -> KnotWord:
    """Convert region notation back to winding notation.

    Each visit-to-visit transition is one winding; a repeated region has
    no winding direction and is rejected (the no-repeat rule).
    """
    if not word.items:
        raise NotationError("empty region word has no start region")
    if not isinstance(word.items[0], Visit):
        raise NotationError("region word must begin with a visit")
    start = word.items[0].region
    items = []
    index = _CYCLE_INDEX[start]
    for item in word.items[1:]:
        if item.__class__ is Tuck:
            items.append(item)
            continue
        to = _CYCLE_INDEX[item.region]
        direction = _DIRECTION[to - index]
        if direction is None:
            raise NotationError(f"repeated region {_CYCLE[to].value} has no winding direction")
        items.append(direction)
        index = to
    return KnotWord(start=start, items=tuple(items))


def mirror(knot: KnotWord) -> KnotWord:
    """The mirror-image knot: start reflected, T and W exchanged."""
    items = tuple(i if isinstance(i, Tuck) else mirror_direction(i) for i in knot.items)
    return KnotWord(start=mirror_region(knot.start), items=items)


def final_region(knot: KnotWord) -> Region:
    """Where the blade ends up: start advanced by #T - #W turnwise steps."""
    return step_region(knot.start, WindDir.T, _net_turns(knot.windings))


class FinalClass(str, Enum):
    """Knot families by final tuck region (canonical start L).

    Classical broad-blade knots finish with a tuck from the center;
    modern thin-blade knots may finish right or left.
    """

    CLASSICAL_C = "Classical-C"
    MODERN_R = "Modern-R"
    MODERN_L = "Modern-L"


_FINAL_CLASS = {
    Region.CENTER: FinalClass.CLASSICAL_C,
    Region.RIGHT: FinalClass.MODERN_R,
    Region.LEFT: FinalClass.MODERN_L,
}


def classify_final(knot: KnotWord) -> FinalClass:
    """Classify by the final region (start must be L)."""
    if knot.start is not Region.LEFT:
        raise ValueError("classification assumes the canonical start region L")
    return _FINAL_CLASS[final_region(knot)]


_DIRECTION_WORD = {WindDir.T: "turnwise", WindDir.W: "widdershins"}
_ORIENTATION_WORD = {Orientation.IN: "behind the knot", Orientation.OUT: "in front of the knot"}


def render_instructions(knot: KnotWord) -> str:
    """Spell a valid knot out as numbered tying steps.

    Winding steps give the source region, turn direction, target region
    and whether the pass goes in front of or behind the knot; tuck steps
    name the bow the blade dives under.  Raises ``ValueError`` for words
    that do not validate, naming the first broken rule.
    """
    from . import validity

    report = validity.validate(knot)
    if not report.valid:
        first = report.violations[0]
        raise ValueError(f"not a valid knot: [{first.rule}] {first.message}")

    visits = infer_orientations(tw_to_clr(knot)).visits

    lines = []
    winding_index = 0  # completed windings; visit 0 is the start itself
    for step, item in enumerate(knot.items, start=1):
        if isinstance(item, WindDir):
            source, target = visits[winding_index], visits[winding_index + 1]
            winding_index += 1
            lines.append(
                f"{step}. From {source.region.name.lower()}, wind {_DIRECTION_WORD[item]} "
                f"to {target.region.name.lower()}, passing {_ORIENTATION_WORD[target.orientation]}."
            )
        else:
            bow = "the previous bow" if item.depth == 1 else f"the bow made {2 * item.depth} windings ago"
            lines.append(f"{step}. Tuck the blade under {bow}.")
    return "\n".join(lines)
