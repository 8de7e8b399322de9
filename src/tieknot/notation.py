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
one-letter string ``"T"`` or ``"W"``) or a :class:`Tuck`.  Its views are
its winding letters (``"TWWWTTTTT"``), its ``(position, depth)`` tucks, its
canonical text, its :class:`RegionWord` and its final region.  A :class:`RegionWord`
holds :class:`Visit` and :class:`Tuck` items; its views are the letters of the
windings between its visits, its tucks, its region text and its winding text.
Each notation has one reader whose walk writes all of a word's views:
:func:`parse_tw` for winding text, which also writes the region word
and keeps the region of its last visit as the final region, and
:func:`parse_clr` for region text.  Every other word is made through
them or from views they wrote: :func:`clr_to_tw` parses the region
word's winding text, :func:`mirror` exchanges T and W in the text,
:func:`infer_orientations` writes oriented items and text and keeps the
other views, and a word built from items (directly or by
``dataclasses.replace``) checks them and parses their text.  So
:func:`tw_to_clr`, :func:`final_region` and ``serialize`` are lookups.
Views are not fields, so they play no part in ``==``, ``hash`` or
``repr``.  Beside :func:`tw_to_clr`, :func:`tw_texts_to_clr` turns a
batch of winding texts, started at L, straight into region texts and
builds no word (the cross-checks'): it reads the texts joined by
newlines in runs of six characters, each looked up in a table filled
on demand.  :func:`canonicalize_tw` reads one text of user input; the
generators write canonical text, so it has no batch form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional, Union


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
# Winding text from L ends in the region whose cycle index is its net turn
# #T - #W mod 3; knots and winding patterns are classed by that turn.
TURN_OF_REGION = _CYCLE_INDEX


def step_region(region: Region, direction: WindDir, times: int = 1) -> Region:
    """Advance ``region`` by ``times`` windings in ``direction``."""
    delta = times if direction == "T" else -times  # a member equals its letter
    return _CYCLE[(_CYCLE_INDEX[region] + delta) % 3]


def mirror_region(region: Region) -> Region:
    """Reflect left/right; the center is its own mirror image."""
    return _CYCLE[2 - _CYCLE_INDEX[region]]


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


def _word(cls, **state):
    """An instance of the frozen dataclass ``cls`` (a word, or a name) with
    its fields and views set as given, for a reader that has already
    checked and walked its input: ``__post_init__`` does not run."""
    word = object.__new__(cls)
    word.__dict__.update(state)
    return word


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

    def __post_init__(self):
        """Check the items, then take every view from parsing their text."""
        if self.items and isinstance(self.items[0], Tuck):
            raise NotationError("tuck before any winding")
        for item in self.items:
            if not isinstance(item, (WindDir, Tuck)):
                raise TypeError(f"not a knot item: {item!r}")
        knot = parse_tw(_serialize(self.items), self.start)
        self.__dict__.update(start=knot.start, _windings=knot._windings, _tucks=knot._tucks,
                             _text=knot._text, _region_word=knot._region_word, _final=knot._final)

    @property
    def windings(self) -> tuple:
        """The windings as :class:`WindDir` members; the word keeps their letters."""
        return tuple(map(WindDir, self._windings))

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
            net_turn=(_CYCLE_INDEX[self._final] - _CYCLE_INDEX[self.start]) % 3,
        )

    def serialize(self) -> str:
        """Canonical text: winds as letters, tucks as U runs, adjacent
        tucks separated by a single apostrophe."""
        return self._text

    def __str__(self):
        return self.serialize()


@dataclass(frozen=True)
class Visit:
    """One stay of the active blade in a region, optionally oriented."""

    region: Region
    orientation: Optional[Orientation] = None

    def __post_init__(self):
        if not isinstance(self.region, Region) or not isinstance(self.orientation, (Orientation, type(None))):
            raise TypeError(f"not a region and mark: {self.region!r}, {self.orientation!r}")

    def __str__(self):
        mark = self.orientation.value if self.orientation else ""
        return self.region.value + mark


RegionItem = Union[Visit, Tuck]


@dataclass(frozen=True)
class RegionWord:
    """A knot in region notation: visits interleaved with tucks."""

    items: tuple = ()

    def __post_init__(self):
        """Check the items, then take every view from parsing their text."""
        for item in self.items:
            if not isinstance(item, (Visit, Tuck)):
                raise TypeError(f"not a region item: {item!r}")
        self.__dict__.update(parse_clr(_serialize(self.items)).__dict__, items=self.items)

    @property
    def visits(self) -> tuple:
        return tuple(i for i in self.items if isinstance(i, Visit))

    @property
    def regions(self) -> tuple:
        return tuple(v.region for v in self.visits)

    def serialize(self) -> str:
        return self._text

    def __str__(self):
        return self.serialize()


_VISITS = tuple(Visit(region) for region in _CYCLE)
_CYCLE_LETTERS = "".join(region.value for region in _CYCLE)
_TURN = {WindDir.T: 1, WindDir.W: 2}  # steps along the cycle, mod 3
_DIRECTION = ("", "T", "W") * 2  # by cycle index to - from, -2 to 2; no letter for a repeat


def _wind_steps() -> tuple:
    """Winding steps by cycle index: for each letter, its direction and the
    visit, the region letter and the steps of the index it moves to."""
    tables = tuple({} for _ in _CYCLE)
    for index, steps in enumerate(tables):
        for direction in WindDir:
            to = (index + _TURN[direction]) % 3
            steps[direction.value] = (direction, _VISITS[to], _CYCLE_LETTERS[to], tables[to])
    return tables


_WIND_STEPS = _wind_steps()
_TUCK = _shared_tuck(1)


def parse_tw(text: str, start: Region = Region.LEFT) -> KnotWord:
    """Parse winding notation into a :class:`KnotWord`.

    Accepts the characters ``T``, ``W``, ``U`` and ``'``; whitespace
    carries no meaning and is dropped before parsing.  A run of k
    consecutive ``U`` becomes one depth-k tuck; an apostrophe ends a run
    so that distinct tucks at the same point stay distinct, and it must
    sit between two ``U`` characters.  A tuck needs at least one
    preceding winding.  The empty string parses to an empty word (which
    is not by itself a valid knot).  A start letter becomes its Region.

    One walk over the characters writes the items, the winding letters,
    the ``(position, depth)`` tucks, the region word with its text and the
    final region (that of the last visit), and the word keeps them all.
    Every other way of making a word comes here.  Errors carry the index
    in the text.
    """
    text = "".join(text.split())
    if not isinstance(start, Region):
        start = Region(start)
    index = _CYCLE_INDEX[start]
    steps, visit = _WIND_STEPS[index], _VISITS[index]
    items, windings, tucks = [], [], []
    # The region word: the start visit, then one visit per winding and the
    # tucks; its text has one letter per character read.
    visits, letters = [_VISITS[index]], [_CYCLE_LETTERS[index]]
    depth = 0  # of the U run just read; -1 after an apostrophe
    for ch in text:
        step = steps.get(ch)
        if step is not None and depth >= 0:
            direction, visit, letter, steps = step
            items.append(direction)
            windings.append(ch)
            visits.append(visit)
            letters.append(letter)
            depth = 0
        elif ch == "U" and windings:
            if depth > 0:  # the run goes on: its tuck deepens
                depth += 1
                items[-1] = visits[-1] = _shared_tuck(depth)
                tucks[-1] = (len(windings), depth)
            else:
                depth = 1
                items.append(_TUCK)
                visits.append(_TUCK)
                tucks.append((len(windings), 1))
            letters.append(ch)
        elif ch == "'" and depth > 0:
            depth = -1
            letters.append(ch)
        else:
            raise _misplaced(ch, len(letters) - 1, depth < 0)
    if depth < 0:
        raise _misplaced("", len(letters) - 1, True)
    # The input is the canonical text: an apostrophe parses only between two tucks.
    windings, tucks = "".join(windings), tuple(tucks)
    region_word = _word(RegionWord, items=tuple(visits), _text="".join(letters),
                        _windings=windings, _tucks=tucks, _tw_text=text)
    return _word(KnotWord, start=start, items=tuple(items), _windings=windings,
                 _tucks=tucks, _text=text, _region_word=region_word, _final=visit.region)


def _misplaced(ch: str, index: int, after_apostrophe: bool, first: str = "winding") -> NotationError:
    """The error for text that cannot go on with ``ch`` at ``index`` (``first`` precedes a tuck)."""
    if after_apostrophe:  # the apostrophe before ``ch`` is not followed by a U
        return NotationError("' must sit between two U characters", index - 1)
    if ch == "U":
        return NotationError(f"tuck before any {first}", index)
    if ch == "'":
        return NotationError("' must sit between two U characters", index)
    return NotationError(f"unexpected character {ch!r}", index)


_SPACE = re.compile(r"\s")
_STRAY_APOSTROPHE = re.compile(r"(?<!U)'|'\Z")  # not after a tuck, or ending the text
_LOOSE_APOSTROPHE = re.compile(r"'(?!U)")  # after a tuck but not before one


def canonicalize_tw(text: str) -> str:
    """Canonical apostrophe placement for a winding text: keep a ``'``
    only between two adjacent tucks (a U on both sides).

    This serves user input: a separator after a finished tuck ahead of a
    winding is redundant (the U runs group the tucks), and the library's
    generators write canonical text already.  Whitespace is refused as an
    unexpected character (dropping a ``'`` that a space parts from its
    tuck would name another knot), as is a ``'`` not after a tuck or at the end.
    """
    if space := _SPACE.search(text):
        raise _misplaced(space.group(), space.start(), False)
    if stray := _STRAY_APOSTROPHE.search(text):
        raise NotationError("' must follow a tuck", stray.start())
    return _LOOSE_APOSTROPHE.sub("", text)


# For each region letter: its cycle index, its visit and, by mark, its marked visits.
_CLR_STEPS = {
    region.value: (index, _VISITS[index], {o.value: Visit(region, o) for o in Orientation})
    for index, region in enumerate(_CYCLE)
}


def parse_clr(text: str) -> RegionWord:
    """Parse region notation into a :class:`RegionWord`.

    Accepts ``L``, ``C``, ``R`` with optional ``i``/``o`` suffixes, plus
    ``U`` runs and apostrophes with the same grouping rules as
    :func:`parse_tw`; whitespace is dropped.  Adjacency violations (a
    repeated region) are a matter for validation, not parsing.

    One walk writes the items, the winding letters between visits and the
    winding text (None, with no letter, where a region repeats) and the
    ``(position, depth)`` tucks; the word keeps them and the text it read.
    Errors carry its index.
    """
    text = "".join(text.split())
    items, windings, tucks, letters = [], [], [], []  # letters: of the winding text
    index, visit, marks, depth = None, None, {}, 0  # of the last letter; depth as in parse_tw
    for position, ch in enumerate(text):
        step = _CLR_STEPS.get(ch)
        if step is not None and depth >= 0:
            to, visit, marks = step
            if items:
                direction = _DIRECTION[to - index]  # "" at a repeat, which still counts for tucks
                windings.append(direction)
                letters.append(direction)
            items.append(visit)
            index, depth = to, 0
        elif ch in marks and items[-1] is visit:  # marks the visit just read
            items[-1] = marks[ch]
        elif ch == "U" and items:
            if depth > 0:  # the run goes on: its tuck deepens
                depth += 1
                items[-1] = _shared_tuck(depth)
                tucks[-1] = (len(windings), depth)
            else:
                depth = 1
                items.append(_TUCK)
                tucks.append((len(windings), 1))
            letters.append(ch)
        elif ch == "'" and depth > 0:
            depth = -1
            letters.append(ch)
        else:
            raise _misplaced(ch, position, depth < 0, "region visit")
    if depth < 0:
        raise _misplaced("", len(text), True)
    return _word(RegionWord, items=tuple(items), _text=text, _windings="".join(windings),
                 _tucks=tuple(tucks), _tw_text=None if "" in windings else "".join(letters))


# The oriented visits, shared with the marked ones parse_clr reads: for each
# region the "out" visit and its text, then the "in" one.
_ORIENTED = {
    Region(letter): tuple((marks[mark], letter + mark) for mark in "oi")
    for letter, (_, _, marks) in _CLR_STEPS.items()
}


def infer_orientations(word: RegionWord) -> RegionWord:
    """Recover the in/out annotation of every visit by backtracking.

    Non-tuck moves alternate between inwards and outwards, and the move
    laid just before a tuck must pass in front of the knot, so anchoring
    "out" on the visit preceding the last tuck determines every other
    orientation.  A word without any tuck has no anchor and cannot be
    oriented (it also breaks the rule that a knot ends on a tuck or a
    center visit).

    The anchor's rank is the last tuck's position.  One walk writes the
    oriented items and text, kept with the input's other views.
    """
    tucks = word._tucks
    if not tucks:
        raise NotationError("no tuck to anchor orientations (word cannot end a knot)")

    items, letters = [], []
    inward = tucks[-1][0] & 1  # the first visit is "out" when its rank has the anchor's parity
    after_tuck = False
    for item in word.items:
        if item.__class__ is Tuck:
            if after_tuck:
                letters.append("'")
            items.append(item)
            letters.append("U" * item.depth)
            after_tuck = True
        else:
            visit, text = _ORIENTED[item.region][inward]
            items.append(visit)
            letters.append(text)
            inward ^= 1
            after_tuck = False
    return _word(RegionWord, items=tuple(items), _text="".join(letters),
                 _windings=word._windings, _tucks=tucks, _tw_text=word._tw_text)


def tw_to_clr(knot: KnotWord) -> RegionWord:
    """Convert winding notation to region notation.

    The first visit is the start region; every winding appends the next
    region along (T) or against (W) the turnwise cycle; tucks copy
    through unchanged.  Every word has its region word from the walk
    that made it, so this is a lookup.
    """
    return knot._region_word


_RUN = 6  # characters of joined text read per table lookup
# By the cycle index a run starts on: run -> (its region letters, the index it
# ends on).  Filled on demand, and only with runs of the five symbols below, so
# it holds at most 3 * (5 + 5**2 + ... + 5**6) = 58,590 entries.
_RUN_TABLE = tuple({} for _ in _CYCLE)
_RUN_SYMBOLS = str.maketrans("", "", "TWU'\n")


def _convert_run(run: str, start: int) -> tuple:
    """The table entry for ``run`` read from cycle index ``start``: each
    ``T``/``W`` writes the next region, a newline ends a text and starts
    the next one at L, and every other character copies through."""
    index, letters = start, []
    for ch in run:
        turn = _TURN.get(ch)
        if turn is not None:
            index = (index + turn) % 3
            letters.append(_CYCLE_LETTERS[index])
        elif ch == "\n":
            index = 0
            letters.append("\n" + _CYCLE_LETTERS[0])
        else:
            letters.append(ch)
    entry = ("".join(letters), index)
    if not run.translate(_RUN_SYMBOLS):  # a run with a stray character is not stored
        _RUN_TABLE[start][run] = entry
    return entry


def tw_texts_to_clr(texts: Iterable[str]) -> list:
    """``tw_to_clr(parse_tw(text)).serialize()`` for each whitespace-free
    winding text that :func:`parse_tw` accepts, built without a word: from
    L, each ``T``/``W`` writes the next region, and ``U`` and ``'`` copy
    through.

    The texts are joined with newlines and the joined text is read in runs
    of ``_RUN`` characters, each looked up in a table by the cycle index it
    starts on; the region text is split back at the newlines.  A newline
    inside a text would split it, so it is refused.
    """
    texts = list(texts)
    if not texts:
        return []
    joined = "\n".join(texts)
    if joined.count("\n") != len(texts) - 1:
        text = next(text for text in texts if "\n" in text)
        raise _misplaced("\n", text.index("\n"), False)
    table, index, parts = _RUN_TABLE, 0, [_CYCLE_LETTERS[0]]  # the walk starts at L
    for position in range(0, len(joined), _RUN):
        run = joined[position:position + _RUN]
        letters, index = table[index].get(run) or _convert_run(run, index)
        parts.append(letters)
    return "".join(parts).split("\n")


def clr_to_tw(word: RegionWord) -> KnotWord:
    """Convert region notation back to winding notation.

    Each visit-to-visit transition is one winding; a repeated region has
    no winding direction and is rejected (the no-repeat rule).  The word
    keeps the winding text its walk wrote; :func:`parse_tw` reads it.
    """
    if not word.items:
        raise NotationError("empty region word has no start region")
    text = word._tw_text
    if text is None:
        regions = word.regions
        region = next(region for region, after in zip(regions, regions[1:]) if region is after)
        raise NotationError(f"repeated region {region.value} has no winding direction")
    if text.startswith("U"):  # raised here: parse_tw's error would index text never written
        raise NotationError("tuck before any winding")
    return parse_tw(text, word.items[0].region)


_MIRROR = str.maketrans("TW", "WT")


def mirror(knot: KnotWord) -> KnotWord:
    """The mirror-image knot: start reflected, T and W exchanged."""
    return parse_tw(knot.serialize().translate(_MIRROR), mirror_region(knot.start))


def final_region(knot: KnotWord) -> Region:
    """Where the blade ends up: the start advanced by #T - #W turnwise
    steps, the region of the last visit.  The walk that made the word
    kept it, so this is a lookup."""
    return knot._final


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


_REGION_NAME = {region: region.name.lower() for region in Region}
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

    # The oriented word has the start visit, then one item per item of the knot.
    oriented = infer_orientations(tw_to_clr(knot)).items
    source = oriented[0].region
    lines = []
    for step, (item, target) in enumerate(zip(knot.items, oriented[1:]), start=1):
        if isinstance(item, WindDir):
            lines.append(
                f"{step}. From {_REGION_NAME[source]}, wind {_DIRECTION_WORD[item]} "
                f"to {_REGION_NAME[target.region]}, passing {_ORIENTATION_WORD[target.orientation]}."
            )
            source = target.region
        else:
            bow = "the previous bow" if item.depth == 1 else f"the bow made {2 * item.depth} windings ago"
            lines.append(f"{step}. Tuck the blade under {bow}.")
    return "\n".join(lines)
