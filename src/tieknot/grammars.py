"""Production grammars for the tie-knot languages, with generation and counting.

Four grammars are built in:

* :func:`fm_grammar` -- the classical Fink--Mao knots in region notation
  (flat facade, final tuck from the center);
* :func:`single_tuck_tw_grammar` -- knots whose tucks all have depth 1,
  in winding notation;
* :func:`single_tuck_clr_grammar` -- the same language in region
  notation, optionally restricted by the region of the final tuck;
* :func:`full_grammar` -- the context-free language of knots with tucks
  of arbitrary depth, in winding notation.

Every terminal carries a size weight so that the coefficient of z^d in
the counting series means exactly what the published series for each
language count.  The conventions (frozen after checking low-order
coefficients against independent enumeration):

========================  =======================  ======================
grammar                   weights                  size of a member
========================  =======================  ======================
fm / single-tuck CLR      L,C,R = 1; U = 0         region symbols (moves)
single-tuck TW            T,W = 1; final U = 1,    moves
                          inner U = 0
full                      T,W = 1; U,' = 0         windings (moves - 1)
========================  =======================  ======================

:func:`count_by_size` fills a table of derivations per (nonterminal,
size), one size at a time; :func:`generate` builds each nonterminal's
members from the same splits of a size among an alternative's items.
For unambiguous grammars the two agree bucket by bucket, which the test
suite verifies against a grammar-free enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import product
from typing import Optional

from .genfunc import Series
from .notation import TURN_OF_REGION, Region, sort_key


class GrammarError(ValueError):
    pass


@dataclass(frozen=True)
class T:
    """A terminal symbol with its size weight."""

    symbol: str
    weight: int = 1

    def __post_init__(self):
        if self.weight < 0:
            raise GrammarError(f"negative weight on terminal {self.symbol!r}")


@dataclass(frozen=True)
class N:
    """A reference to a nonterminal."""

    name: str


@dataclass(frozen=True)
class Grammar:
    """A production system: ``productions[name]`` lists the alternatives
    for that nonterminal, each a tuple of terminals and nonterminals."""

    start: str
    productions: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.start not in self.productions:
            raise GrammarError(f"start symbol {self.start!r} has no production")
        for name, alternatives in self.productions.items():
            for item in (item for alternative in alternatives for item in alternative):
                if isinstance(item, N) and item.name not in self.productions:
                    raise GrammarError(f"nonterminal {item.name!r} used in {name!r} is undefined")

    def to_text(self) -> str:
        """One production per line in a plain BNF-like form."""

        def render(alt):
            return " ".join(f'"{i.symbol}"' if isinstance(i, T) else f"<{i.name}>" for i in alt) or "<empty>"

        lines = (f"<{name}> ::= " + " | ".join(map(render, alts)) for name, alts in self.productions.items())
        return "\n".join(lines)


def count_by_size(grammar: Grammar, max_size: int) -> Series:
    """Members of the language per size, 0..max_size, from the count tables.

    Counts derivations; for the built-in grammars (which are
    unambiguous) this equals the number of distinct members.  A cycle of
    zero-weight productions that makes a count diverge is an error.
    """
    count = _count_tables(grammar, max_size)
    return Series(tuple(count(grammar.start, size) for size in range(max_size + 1)))


def _nullable(grammar: Grammar) -> set:
    """The nonterminals that derive a member of size 0."""
    found, more = None, set()
    while found != more:
        found = more
        more = {name for name, alts in grammar.productions.items() if any(
            all(i.name in found if isinstance(i, N) else i.weight == 0 for i in alt) for alt in alts)}
    return found


def _shares(items, size, count, nullable):
    """Yield each split of ``size`` among ``items``: one size per item (a
    terminal takes its weight, the last nonterminal what the others
    leave) and the product of the nonterminals' counts, never 0.

    A count is read only once the other parts are known to be nonzero:
    those before it by their counts and, when it takes all of ``size``,
    those after it (all at size 0) by being nullable.
    """
    sizes, places, weight = _layout(items)
    sizes = list(sizes)

    def split(j, left, ways):
        if j == len(places):
            yield tuple(sizes), ways
            return
        for share in range(left + 1) if j < len(places) - 1 else (left,):
            if share == size and any(items[k].name not in nullable for k in places[j + 1 :]):
                continue
            sizes[places[j]] = share
            more = count(items[places[j]].name, share)
            if more:
                yield from split(j + 1, left - share, ways * more)

    if size > weight and places or size == weight:
        yield from split(0, size - weight, 1)
    del split  # it refers to itself: break the cycle so that no collection is needed


@lru_cache(maxsize=1024)
def _layout(items):
    # The terminals' sizes (their weights), the nonterminals' places, and the terminals' total weight.
    sizes = tuple(item.weight if isinstance(item, T) else None for item in items)
    return sizes, tuple(k for k, item in enumerate(items) if isinstance(item, N)), sum(filter(None, sizes))


def _count_tables(grammar: Grammar, max_size: int):
    """``count(name, size)``: derivations of a nonterminal at a size up to
    ``max_size``, read from tables filled one size at a time, so that only
    zero-weight steps recurse.  A count reached again while being filled
    reads as 0; if it then ends nonzero, it lies on a zero-weight cycle
    and diverges."""
    nullable = _nullable(grammar)
    counts = {name: [] for name in grammar.productions}
    reentered = set()

    def count(name, size):
        row = counts[name]
        if size == len(row):
            row.append(None)
            alts = grammar.productions[name]
            row[size] = sum(ways for alt in alts for _, ways in _shares(alt, size, count, nullable))
            if row[size] and (name, size) in reentered:
                raise GrammarError(f"zero-weight cycle through {name!r} at size {size}")
        if row[size] is None:
            reentered.add((name, size))
            return 0
        return row[size]

    for size in range(max_size + 1):
        for name in grammar.productions:
            count(name, size)
    del count  # it refers to itself: break the cycle so that no collection is needed
    return lambda name, size: counts[name][size]


def generate(grammar: Grammar, max_size: int) -> list:
    """All members of the language with size <= max_size.

    Returns distinct members ordered by (size, alphabet order).  Fills
    the count tables first, which doubles as the zero-weight-cycle check.
    """
    sizes = generate_with_sizes(grammar, max_size)
    return sorted(sizes, key=lambda s: (sizes[s], sort_key(s)))


def generate_with_sizes(grammar: Grammar, max_size: int) -> dict:
    """Like :func:`generate` but returns the mapping member -> size, in
    the order of the splits of each size, then of the parts' members.

    Each nonterminal's members at each size are built once, from the
    splits the count tables were filled with (Nijenhuis and Wilf's
    recursive method)."""
    count, nullable = _count_tables(grammar, max_size), _nullable(grammar)

    @cache
    def members(name, size):
        # Every derivation of `name` at exactly `size`, as text.
        out = []
        for alt in grammar.productions[name]:
            for sizes, _ in _shares(alt, size, count, nullable):
                pieces = (members(i.name, n) if isinstance(i, N) else (i.symbol,) for i, n in zip(alt, sizes))
                out += map("".join, product(*pieces))
        return out

    sizes = {}
    for size in range(max_size + 1):
        for text in members(grammar.start, size):
            known = sizes.setdefault(text, size)
            assert known == size, f"member {text!r} derived at two sizes"
    del members  # it refers to itself: break the cycle so that no collection is needed
    return sizes


# ---------------------------------------------------------------------------
# The built-in grammars.


def fm_grammar() -> Grammar:
    """The classical (Fink--Mao) knots, region notation.

    The walk starts at L; each state remembers the region just visited;
    the knot exits with a two-region swing into the center plus the
    final tuck.  L/C/R weigh 1 and U weighs 0, so size = region symbols.
    """
    L, C, R, U = T("L"), T("C"), T("R"), T("U", 0)
    return Grammar(
        start="tie",
        productions={
            "tie": ((L, N("lastL")),),
            "lastR": ((L, N("lastL")), (C, N("lastC")), (L, C, U)),
            "lastL": ((R, N("lastR")), (C, N("lastC")), (R, C, U)),
            "lastC": ((L, N("lastL")), (R, N("lastR"))),
        },
    )


def single_tuck_tw_grammar() -> Grammar:
    """Knots with depth-1 tucks only, winding notation.

    A body of winding pairs and internal tucks, an optional one-winding
    prefix to fix parity, and a mandatory final tuck.  T and W weigh 1.
    The closing U of the final tuck weighs 1 while internal tuck U's
    weigh 0, so that size equals the move count: a knot of n windings
    sits at size n + 1 regardless of how many internal tucks it has.
    """
    t, w = T("T"), T("W")
    U0, U1 = T("U", 0), T("U", 1)
    return Grammar(
        start="tie",
        productions={
            "tie": ((N("prefix"), N("body")),),
            "prefix": ((t,), (w,), ()),
            "body": ((N("pair"), N("body")), (N("ituck"), N("body")), (N("ftuck"),)),
            "pair": ((t, t), (t, w), (w, t), (w, w)),
            "ituck": ((t, t, U0), (w, w, U0)),
            "ftuck": ((t, t, U1), (w, w, U1)),
        },
    )


_EXIT_REGION = {
    # Exit swings per state: two regions, ending where the tuck happens.
    "lastR": (("L", "C"), ("C", "L")),
    "lastL": (("R", "C"), ("C", "R")),
    "lastC": (("L", "R"), ("R", "L")),
}


def single_tuck_clr_grammar(final: Optional[Region] = None) -> Grammar:
    """The single-tuck language in region notation, by final tuck region.

    States advance two regions at a time (preserving tuck parity); each
    exit lays two regions and tucks, optionally continuing.  Passing
    ``final`` keeps only the terminating exits that land there, which is
    how the per-region counting series are produced; ``None`` keeps all
    six.  L/C/R weigh 1, U weighs 0: size = region symbols = moves.
    """
    U = T("U", 0)
    productions = {}
    for state, exits in _EXIT_REGION.items():
        # Two-region winding steps: from region X, visit any region Y
        # != X, then any region Z != Y; state becomes lastZ.
        alternatives = [
            (T(middle), T(target), N("last" + target))
            for middle in "LCR" if middle != state[-1]
            for target in "LCR" if target != middle
        ]
        for first, landing in exits:
            exit_items = (T(first), T(landing), U)
            alternatives.append(exit_items + (N("last" + landing),))
            if final is None or landing == final.value:
                alternatives.append(exit_items)
        productions[state] = tuple(alternatives)
    productions["tie"] = (
        (T("L"), N("lastL")),
        (T("L"), T("R"), N("lastR")),
        (T("L"), T("C"), N("lastC")),
    )
    return Grammar(start="tie", productions=productions)


def full_grammar(final: Optional[Region] = None) -> Grammar:
    """Knots with arbitrary-depth tucks, winding notation.

    The context-free grammar: tucks open with a winding pair and close
    with a U; their interiors are chains of further pairs and complete
    tucks, apostrophes separating a finished tuck from what follows.
    The three interior states track the residue mod 3 that the rest of
    the window must still contribute for the window rule to hold.  T and
    W weigh 1; U and ' weigh 0, so size = winding count = moves - 1.

    Passing ``final`` keeps only the knots that end there: the top level
    becomes a chain ``body0``..``body2`` holding the net turn (#T - #W
    from L, mod 3) the rest of the knot must still make, and only a
    closing tuck that makes it ends a knot.  ``None`` keeps the plain
    top level.
    """
    t, w = T("T"), T("W")
    U = T("U", 0)
    sep = T("'", 0)
    # Net turns (#T - #W) mod 3: TT 2, TW and WT 0, WW 1; by the window
    # rule a T-opening tuck makes 2 and a W-opening tuck 1.  State wk
    # still owes -k, so after a step of turn s it owes -(k + s).
    pairs = (((t, t), 2), ((t, w), 0), ((w, t), 0), ((w, w), 1))
    tucks = (((N("ttuck2"),), 2), ((N("wtuck2"),), 1))
    if final is None:
        productions = {
            "tie": ((N("prefix"), N("body")),),
            "prefix": ((t,), (w,), ()),
            "body": ((N("pair"), N("body")), (N("tuck"), N("body")), (N("tuck"),)),
            "pair": tuple(items for items, _ in pairs),
            "tuck": tuple(items for items, _ in tucks),
        }
    else:
        goal = TURN_OF_REGION[final]
        productions = {"tie": tuple(
            prefix + (N(f"body{(goal - turn) % 3}"),) for prefix, turn in (((t,), 1), ((w,), 2), ((), 0))
        )}
        for need in range(3):
            productions[f"body{need}"] = tuple(
                items + (N(f"body{(need - turn) % 3}"),) for items, turn in pairs + tucks
            ) + tuple(items for items, turn in tucks if turn == need)
    productions["ttuck2"] = ((t, t, N("w0"), U), (t, w, N("w1"), U))
    productions["wtuck2"] = ((w, w, N("w0"), U), (w, t, N("w2"), U))
    for k in range(3):
        productions[f"w{k}"] = tuple(
            [items + (N(f"w{(k + turn) % 3}"), U) for items, turn in pairs[::-1]]
            + [items + (sep, N(f"w{(k + turn) % 3}"), U) for items, turn in tucks]
        ) + (((),) if k == 0 else ())
    return Grammar(start="tie", productions=productions)


# ---------------------------------------------------------------------------
# The finite automaton for the single-tuck language.


@dataclass(frozen=True)
class Automaton:
    """A finite automaton whose edges may carry multi-symbol labels
    (or the empty label).  Acceptance expands labels into single-symbol
    steps and runs the subset simulation, linear in the input."""

    states: frozenset
    initial: str
    accepting: frozenset
    transitions: tuple  # (state, label, state)

    @cached_property
    def _expanded(self):
        # Single-symbol edge map plus epsilon edges, with chain states
        # for every multi-symbol label.
        edges = {}
        epsilon = {}
        for index, (source, label, target) in enumerate(self.transitions):
            if label == "":
                epsilon.setdefault(source, set()).add(target)
                continue
            here = source
            for offset, symbol in enumerate(label):
                nxt = target if offset == len(label) - 1 else f"@{index}.{offset}"
                edges.setdefault(here, {}).setdefault(symbol, set()).add(nxt)
                here = nxt
        return edges, epsilon

    def accepts(self, text: str) -> bool:
        edges, epsilon = self._expanded

        def closure(states):
            stack = list(states)
            seen = set(states)
            while stack:
                for nxt in epsilon.get(stack.pop(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return seen

        current = closure({self.initial})
        for symbol in text:
            nxt = set()
            for state in current:
                nxt |= edges.get(state, {}).get(symbol, set())
            if not nxt:
                return False
            current = closure(nxt)
        return bool(current & self.accepting)


def single_tuck_automaton() -> Automaton:
    """The machine accepting exactly the single-tuck winding language.

    After an optional one-symbol prefix, control sits on the hub state;
    it must leave (through a winding pair or an internal tuck) and
    return before the word can end with a final TTU/WWU.  The detour
    through the pair state maintains the even-parity rule for tucks.
    """
    transitions = (
        ("start", "T", "hub"),
        ("start", "", "hub"),
        ("start", "W", "hub"),
        ("hub", "TT", "tucking"),
        ("hub", "WW", "tucking"),
        ("tucking", "U", "hub"),
        ("hub", "TTU", "end"),
        ("hub", "WWU", "end"),
        ("hub", "T", "paired"),
        ("hub", "W", "paired"),
        ("paired", "T", "hub"),
        ("paired", "W", "hub"),
    )
    return Automaton(
        states=frozenset({"start", "hub", "tucking", "paired", "end"}),
        initial="start",
        accepting=frozenset({"end"}),
        transitions=transitions,
    )
