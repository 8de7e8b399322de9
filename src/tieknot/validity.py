"""Knot validity: the five tie axioms and the tuck-window rule.

The rules, numbered T1-T5 as is conventional for this language:

* T1 -- no region repeats between consecutive visits;
* T2 -- moves alternate between passing in front of and behind the knot;
* T3 -- a tuck follows an outward move, which for a tuck ending an even
  number of windings before the end of the knot holds automatically;
* T4 -- a knot ends on a tuck (or, exceptionally, on a center visit);
* T5 -- a depth-k tuck needs at least 2k preceding windings.

On top of these, a depth-k tuck is physically possible only when the
window of the 2k windings it spans either starts with W and has
#W - #T = 2 (mod 3) or starts with T and has #T - #W = 2 (mod 3): the
blade must come back around to the one region not involved in the
covering bow.  For k = 1 this reduces to "the last two windings are
equal", and they must be bare: a depth-1 tuck cannot share its point
with the tuck before it.

In winding notation T1 and T2 hold by construction, so they are checked
only for region words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .notation import (
    KnotWord,
    NotationError,
    Orientation,
    Region,
    RegionWord,
    Tuck,
    WindDir,
)

RULE_NO_REPEAT = "T1"
RULE_ALTERNATE = "T2"
RULE_FRONT_TUCK = "T3"
RULE_ENDING = "T4"
RULE_TUCK_ROOM = "T5"
RULE_WINDOW = "window"
RULE_CAP = "cap"


@dataclass(frozen=True)
class ValidityOptions:
    """Knobs for the validity predicate.

    ``allow_hidden_tucks`` drops the even-parity requirement of T3 so
    that tucks may sit behind the knot; the window rule still applies.
    ``max_moves`` caps the winding length (region symbol count), the
    comfortable bound for a real necktie being 13.
    """

    require_final_tuck: bool = True
    allow_final_center_no_tuck: bool = False
    allow_hidden_tucks: bool = False
    max_tuck_depth: Optional[int] = None
    max_moves: Optional[int] = 13


DEFAULT_OPTIONS = ValidityOptions()


@dataclass(frozen=True)
class Violation:
    rule: str
    position: int
    message: str

    def __str__(self):
        return f"[{self.rule}] at {self.position}: {self.message}"


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple = ()

    def __post_init__(self):
        if self.valid == bool(self.violations):
            raise ValueError(f"valid={self.valid} with {len(self.violations)} violation(s)")

    def lines(self):
        if self.valid:
            return ["valid"]
        return ["invalid"] + [str(v) for v in self.violations]

    def to_dict(self):
        return {
            "valid": self.valid,
            "violations": [
                {"rule": v.rule, "position": v.position, "message": v.message}
                for v in self.violations
            ],
        }


_VALID = ValidityReport(valid=True)  # reports are immutable, so valid knots share one


def tuck_site_valid(windings: Sequence[WindDir], position: int, k: int) -> bool:
    """Window rule: may a depth-``k`` tuck close after winding ``position``?

    The window is the run of 2k windings ending at ``position``
    (1-based).  Fewer than 2k preceding windings fail T5 and answer
    False rather than raising.
    """
    if not 1 <= position <= len(windings):
        raise ValueError(f"position {position} outside 1..{len(windings)}")
    if k < 1:
        raise ValueError(f"tuck depth must be >= 1, got {k}")
    if position < 2 * k:
        return False
    return _window_fits(windings[position - 2 * k : position])


def _window_fits(window) -> bool:
    """T5 on the 2k windings under a depth-k tuck: the net turn #T - #W,
    signed by the first winding's direction, is 2 mod 3.  The windings may
    be letters or members, which equal their letters."""
    turn = 2 * window.count("T") - len(window)
    return (turn if window[0] == "T" else -turn) % 3 == 2


def tuck_parity_ok(windings_total: int, position: int) -> bool:
    """Front-of-knot rule: tucks sit an even number of windings from the end."""
    return (windings_total - position) % 2 == 0


def tuck_sites(
    windings: Sequence[WindDir], opts: ValidityOptions = DEFAULT_OPTIONS
) -> list:
    """All valid tuck sites as ``(position, depths)`` pairs, ascending.

    For every position that admits at least one depth, ``depths`` is the
    sorted tuple of all k with 2k <= position whose window passes the
    window rule; positions failing the parity rule are skipped unless
    hidden tucks are allowed.  A single point can be valid for several
    depths at once.
    """
    n = len(windings)
    out = []
    for position in range(1, n + 1):
        if not opts.allow_hidden_tucks and not tuck_parity_ok(n, position):
            continue
        depths = []
        for k in range(1, position // 2 + 1):
            if opts.max_tuck_depth is not None and k > opts.max_tuck_depth:
                break
            if tuck_site_valid(windings, position, k):
                depths.append(k)
        if depths:
            out.append((position, tuple(depths)))
    return out


def validate(knot: KnotWord, opts: ValidityOptions = DEFAULT_OPTIONS) -> ValidityReport:
    """Check a winding-notation knot against the axioms.

    Every tuck must clear T5, the window rule, and (unless hidden tucks
    are allowed) the parity form of T3; the word must end in a tuck
    unless the center-ending exception is switched on; depth and length
    caps apply.  T1/T2 cannot be broken in this notation.
    """
    return _judge(knot._final, knot._windings, knot._tucks, opts)


def _judge(final: Region, windings: str, tucks, opts: ValidityOptions) -> ValidityReport:
    """The rules past T1/T2, for a knot given by its winding letters, its
    ``(position, depth)`` tucks and its final region.  The knot ends on a
    tuck when its last tuck sits after its last winding."""
    violations = []
    n = len(windings)
    max_moves, max_depth, hidden = opts.max_moves, opts.max_tuck_depth, opts.allow_hidden_tucks

    if max_moves is not None and n + 1 > max_moves:
        violations.append(
            Violation(RULE_CAP, n, f"{n + 1} moves exceed the cap of {max_moves}")
        )

    last = 0  # where the tuck before sits
    for position, depth in tucks:
        stacked, last = position == last, position
        if max_depth is not None and depth > max_depth:
            violations.append(
                Violation(
                    RULE_CAP,
                    position,
                    f"depth-{depth} tuck exceeds the depth cap of {max_depth}",
                )
            )
            continue
        if position < 2 * depth:
            violations.append(
                Violation(
                    RULE_TUCK_ROOM,
                    position,
                    f"depth-{depth} tuck needs {2 * depth} preceding windings, found {position}",
                )
            )
            continue
        # a depth-1 tuck needs a bare pair, not one that closes a tuck
        if (stacked and depth == 1) or not _window_fits(windings[position - 2 * depth : position]):
            violations.append(
                Violation(
                    RULE_WINDOW,
                    position,
                    f"window does not admit a depth-{depth} tuck after winding {position}",
                )
            )
        if (n - position) % 2 and not hidden:  # T3's parity form
            message = "tuck an odd number of windings from the end would sit behind the knot"
            violations.append(Violation(RULE_FRONT_TUCK, position, message))

    ends_in_center = opts.allow_final_center_no_tuck and n > 0 and final is Region.CENTER
    if opts.require_final_tuck and not (tucks and tucks[-1][0] == n) and not ends_in_center:
        violations.append(Violation(RULE_ENDING, n, "knot must end on a tuck (or a center visit)"))

    return ValidityReport(valid=False, violations=tuple(violations)) if violations else _VALID


# The mark a visit must carry, by the parity of its distance from the anchor.
_FORCED = (Orientation.OUT, Orientation.IN)


def validate_clr(word: RegionWord, opts: ValidityOptions = DEFAULT_OPTIONS) -> ValidityReport:
    """Check a region-notation word: T1/T2 explicitly, the rest from its own views.

    When the word contains a tuck, its orientations are fully determined
    by backtracking, so every explicit mark is checked against the
    forced assignment; a wrong mark just before a tuck is a T3
    violation, elsewhere a T2 violation.  Without a tuck only mutual
    alternation between the marks themselves can be checked, each against
    the one before.  A word with no winding form (empty, or a tuck before
    any winding) raises :class:`NotationError`, as :func:`~tieknot.notation.clr_to_tw` does.

    One walk over the items finds the repeats, the wrong marks and the
    final region (that of the last visit); the last tuck's position anchors
    the forced marks.  If all hold, the windings and tucks the word keeps
    are judged with that region as :func:`validate` judges a knot.
    """
    items = word.items
    tucks = word._tucks
    repeats, wrong = [], []
    anchor = tucks[-1][0] if tucks else None  # a rank whose visit's mark is "out"
    region, rank = None, 0  # of the visit before; visits read
    for i, item in enumerate(items):
        if item.__class__ is Tuck:
            continue
        if item.region is region:
            repeats.append(Violation(RULE_NO_REPEAT, i, f"region {region.value} repeats"))
        region, mark = item.region, item.orientation
        if mark is not None:
            if anchor is not None and mark is not _FORCED[(anchor - rank) & 1]:
                if i + 1 < len(items) and items[i + 1].__class__ is Tuck:
                    message = "the move before a tuck must pass in front of the knot"
                    wrong.append(Violation(RULE_FRONT_TUCK, i, message))
                else:
                    wrong.append(Violation(RULE_ALTERNATE, i, "moves do not alternate direction"))
            if not tucks:  # the next mark alternates from this one
                anchor = rank if mark is _FORCED[0] else rank + 1
        rank += 1

    if repeats or wrong:
        return ValidityReport(valid=False, violations=tuple(repeats + wrong))
    if not items:
        raise NotationError("empty region word has no start region")
    if tucks and tucks[0][0] == 0:
        raise NotationError("tuck before any winding")
    return _judge(region, word._windings, tucks, opts)
