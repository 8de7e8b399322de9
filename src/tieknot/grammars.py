"""Production grammars for the tie-knot languages, with generation and counting.

Five grammars are built in:

* :func:`fm_grammar` -- the classical Fink--Mao knots in region notation
  (flat facade, final tuck from the center);
* :func:`single_tuck_tw_grammar` -- knots whose tucks all have depth 1,
  in winding notation;
* :func:`single_tuck_clr_grammar` -- the same language in region
  notation, optionally restricted by the region of the final tuck;
* :func:`hidden_tuck_grammar` -- depth-1 tucks that may sit behind the
  knot, in winding notation;
* :func:`full_grammar` -- the context-free language of knots with tucks
  of arbitrary depth, in canonical winding text (an apostrophe only
  between two tucks).  Both restrict to a final region by
  :func:`intersect` with a net-turn automaton.

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
hidden / full             T,W = 1; U,' = 0         windings (moves - 1)
========================  =======================  ======================

:func:`count_by_size` fills one row of derivation counts per
nonterminal, size by size, by row lookups and convolutions over each
alternative's nonterminals; :func:`generate` builds members from the
splits with nonzero counts.  For unambiguous grammars the two agree by
bucket, which the tests check against a grammar-free enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product
from operator import mul
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
    return Series(tuple(_count_tables(grammar, max_size)[1][grammar.start]))


def _nullable(grammar: Grammar) -> set:
    """The nonterminals that derive a member of size 0."""
    found, more = None, set()
    while found != more:
        found = more
        more = {name for name, alts in grammar.productions.items() if any(
            all(i.name in found if isinstance(i, N) else i.weight == 0 for i in alt) for alt in alts)}
    return found


def _ways(rows, m):
    """Derivations of two or more nonterminals with count rows ``rows`` sharing ``m``: the rows
    convolved in turn, in full but for the last product (no built-in grammar has three parts)."""
    acc = rows[0]
    for row in rows[1:-1]:
        acc = [sum(map(mul, acc[: i + 1], row[i::-1])) for i in range(m + 1)]
    return sum(map(mul, acc[: m + 1], rows[-1][m::-1]))


def _count_tables(grammar: Grammar, max_size: int):
    """The compiled alternatives and ``rows[name][size]``, derivations at
    each size up to ``max_size``, filled size by size with row lookups
    (one nonterminal) and convolutions (more).  A weight-0 alternative
    reads the part that takes all of a size once those before it have
    members of size 0 and those after are nullable: the last part first,
    but at size 0 the first, while they have members.  Sizes 0 and 1 fill
    depth first along these reads, larger ones in the order of size 1.  A
    count read before it is filled reads as 0; if it then ends nonzero, it
    lies on a zero-weight cycle."""
    nullable = _nullable(grammar)
    compiled = {name: [(sum(i.weight for i in alt if isinstance(i, T)), [i.name for i in alt if isinstance(i, N)], alt)
                       for alt in alts] for name, alts in grammar.productions.items()}  # weight, nonterminals, items
    rows, unit = {name: [0] * (max_size + 1) for name in compiled}, [1] + [0] * max_size
    lookups = {name: [(w, rows[names[0]] if names else unit) for w, names, _ in alts if len(names) < 2]
               for name, alts in compiled.items()}
    products = {name: [(w, [rows[n] for n in names]) for w, names, _ in alts if len(names) > 1]
                for name, alts in compiled.items()}

    def fill(name):
        total = sum(row[size - w] for w, row in lookups[name] if size >= w)
        rows[name][size] = total = total + sum(_ways(r, size - w) for w, r in products[name] if size >= w)
        if total and name in read_early:
            raise GrammarError(f"zero-weight cycle through {name!r} at size {size}")

    def reads(name):
        done[name] = False
        for weight, names, _ in compiled[name]:
            for j in () if weight else range(len(names)) if size == 0 else reversed(range(len(names))):
                if all(rows[n][0] for n in names[:j]) and nullable.issuperset(names[j + 1 :] if size else names[1:]):
                    yield names[j]

    for size in range(min(max_size, 1) + 1):
        order, read_early, done = [], set(), {}
        for root in compiled:
            stack = [] if root in done else [(root, reads(root))]
            while stack:
                name, pending = stack[-1]
                for read in pending:
                    if read not in done:
                        stack.append((read, reads(read)))
                        break
                    if not done[read]:  # it is being filled
                        read_early.add(read)
                else:
                    stack.pop()
                    done[name] = True
                    order.append(name)
                    fill(name)
    for size in range(2, max_size + 1):
        for name in order:
            fill(name)
    return compiled, rows


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
    splits with nonzero counts (Nijenhuis and Wilf's recursive method).
    A member derived at two sizes is a :class:`GrammarError`."""
    compiled, rows = _count_tables(grammar, max_size)
    sizes, built = {}, {}
    for size in range(max_size + 1):
        for text in _members(grammar.start, size, compiled, rows, built):
            if sizes.setdefault(text, size) != size:
                raise GrammarError(f"member {text!r} derived at two sizes")
    return sizes


def _members(name, size, compiled, rows, built):
    # Every derivation of `name` at `size`: per alternative, per split with nonzero counts.
    if (name, size) not in built:
        out = built[name, size] = []
        for weight, names, alt in compiled[name]:
            *first, last = [rows[n] for n in names] or [[1] + [0] * size]  # no nonterminal: the size is its weight
            for head in product(*([k for k in range(size - weight + 1) if row[k]] for row in first)):
                if (rest := size - weight - sum(head)) >= 0 and last[rest]:
                    parts = iter([_members(n, k, compiled, rows, built) for n, k in zip(names, (*head, rest))])
                    out += map("".join, product(*(next(parts) if isinstance(i, N) else (i.symbol,) for i in alt)))
    return built[name, size]


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


def hidden_tuck_grammar(final: Optional[Region] = None) -> Grammar:
    """Knots with depth-1 tucks that may sit behind the knot, winding notation.

    Without T3's parity rule a tuck may follow any two equal bare
    windings, so after each letter the next letter follows bare, or
    repeats it and tucks, or repeats it and closes the knot: 2 * 3^(n-2)
    knots of n windings.  The state ``T`` or ``W`` is the last letter;
    passing ``final`` keeps the knots that end there (:func:`intersect`
    with the net-turn automaton).  U weighs 0: size = windings.
    """
    U = T("U", 0)
    bare = ((T("T"), N("T")), (T("W"), N("W")))  # the next letter, laid bare
    productions = {"tie": bare, **{c: bare + ((T(c), U, N(c)), (T(c), U)) for c in "TW"}}
    grammar = Grammar(start="tie", productions=productions)
    return grammar if final is None else intersect(grammar, _net_turn_automaton(final))


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
    landings = "LCR" if final is None else Region(final).value
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
            if landing in landings:
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
    tucks, in canonical text: an apostrophe only between two tucks.
    The three interior states track the residue mod 3 that the rest of
    the window must still contribute for the window rule to hold.  T and
    W weigh 1; U and ' weigh 0, so size = winding count = moves - 1.

    Passing ``final`` keeps the knots that end there: :func:`intersect`
    with the net-turn automaton keeps the interiors and tucks whole.
    """
    t, w = T("T"), T("W")
    U = T("U", 0)
    # Net turns (#T - #W) mod 3: TT 2, TW and WT 0, WW 1; by the window
    # rule a T-opening tuck makes 2 and a W-opening tuck 1.  State wk
    # still owes -k, so after a step of turn s it owes -(k + s).  Only w0 may
    # be empty, so a tuck is followed by w0+ (w0 less the empty text), w1, w2
    # or, where the closing U follows at once, by ' U.
    pairs = (((t, t), 2), ((t, w), 0), ((w, t), 0), ((w, w), 1))
    tucks = (((N("ttuck2"),), 2), ((N("wtuck2"),), 1))
    nonempty = ("w0+", "w1", "w2")
    productions = {
        "tie": ((t, N("body")), (w, N("body")), (N("body"),)),
        "body": tuple(items + (N("body"),) for items, _ in pairs) + ((N("tuck"), N("body")), (N("tuck"),)),
        "tuck": tuple(items for items, _ in tucks),
        "ttuck2": ((t, t, N("w0"), U), (t, w, N("w1"), U)),
        "wtuck2": ((w, w, N("w0"), U), (w, t, N("w2"), U)),
        "w0": ((N("w0+"),), ()),
    }
    for k in range(3):
        productions[nonempty[k]] = tuple(
            [items + (N(f"w{(k + turn) % 3}"), U) for items, turn in pairs[::-1]]
            + [items + (N(nonempty[(k + turn) % 3]), U) for items, turn in tucks]
            + [items + (T("'", 0), U) for items, turn in tucks if (k + turn) % 3 == 0]
        )
    grammar = Grammar(start="tie", productions=productions)
    return grammar if final is None else intersect(grammar, _net_turn_automaton(final))


# ---------------------------------------------------------------------------
# Finite automata: the single-tuck machine, and a grammar's product with one.


@dataclass(frozen=True)
class Automaton:
    """A finite automaton whose every edge reads one symbol.  Acceptance
    runs the subset simulation, linear in the input."""

    initial: str
    accepting: frozenset
    transitions: tuple  # (state, symbol, state)

    def __post_init__(self):
        for edge in self.transitions:
            if not (isinstance(edge[1], str) and len(edge[1]) == 1):
                raise GrammarError(f"an edge reads one symbol, not {edge[1]!r}")

    @cached_property
    def _edges(self):  # (state, symbol) -> its targets, in transition order
        edges = {}
        for source, symbol, target in self.transitions:
            edges.setdefault((source, symbol), []).append(target)
        return edges

    def accepts(self, text: str) -> bool:
        edges = self._edges
        current = {self.initial}
        for symbol in text:
            current = {q for p in current for q in edges.get((p, symbol), ())}
            if not current:
                return False
        return bool(current & self.accepting)


def single_tuck_automaton() -> Automaton:
    """The machine accepting exactly the single-tuck winding language.

    Control sits on the hub between winding pairs and tucks; ``start``
    reads what the hub reads, or one winding of the optional prefix.  The
    detour through ``paired`` keeps the even parity of the tucks, and a
    tuck reads TT or WW, through ``t`` or ``w``, then U: back to the hub,
    or to ``end`` when it is the final tuck.
    """
    hub = (("T", "paired"), ("W", "paired"), ("T", "t"), ("W", "w"))
    transitions = (
        *(("start", symbol, target) for symbol, target in hub + (("T", "hub"), ("W", "hub"))),
        *(("hub", symbol, target) for symbol, target in hub),
        ("paired", "T", "hub"),
        ("paired", "W", "hub"),
        ("t", "T", "tucking"),
        ("w", "W", "tucking"),
        ("tucking", "U", "hub"),
        ("tucking", "U", "end"),
    )
    return Automaton(
        initial="start",
        accepting=frozenset({"end"}),
        transitions=transitions,
    )


def intersect(grammar: Grammar, automaton: Automaton) -> Grammar:
    """The members of ``grammar`` that a deterministic ``automaton`` (one
    edge per state and symbol) accepts, as a grammar: the product of
    Bar-Hillel, Perles and Shamir (1961).  A nonterminal whose members all
    move every state alike stays whole; any other ``A`` becomes ``A|p|q``,
    its members that lead from state p to state q."""
    if any(len(targets) > 1 for targets in automaton._edges.values()):
        raise GrammarError("automaton is not deterministic")
    step = {edge: target for edge, (target,) in automaton._edges.items()}
    # None is the state that a missing edge leads to, and that no edge leaves.
    states = [*dict.fromkeys((automaton.initial, *(s for edge in automaton.transitions for s in edge[::2]))), None]
    reach = {name: {p: set() for p in states} for name in grammar.productions}  # from each state, where members lead

    def ends(item, p):
        return reach[item.name][p] if isinstance(item, N) else {reduce(lambda r, c: step.get((r, c)), item.symbol, p)}

    def paths(alt, p):  # each way along ``alt`` from state p: its (item, from, to) parts, and where it ends
        walks = [((), p)]
        for item in alt:
            walks = [(done + ((item, r, q),), q) for done, r in walks for q in sorted(ends(item, r), key=states.index)]
        return walks

    while (grown := {name: {p: {q for alt in alts for _, q in paths(alt, p)} for p in states}
                     for name, alts in grammar.productions.items()}) != reach:
        reach.update(grown)
    split = {name for name, to in reach.items() if any(len(qs) > 1 for qs in to.values())}  # members move states unalike

    def form(item, p, q):  # the item from state p to state q
        return N(f"{item.name}|{p}|{q}") if isinstance(item, N) and item.name in split else item

    roots = [walk[0] for walk, q in paths((N(grammar.start),), automaton.initial) if q in automaton.accepting]
    productions, queue = {}, list(roots)
    for item, p, q in queue:  # each product nonterminal, once built, queues its parts
        if (name := form(item, p, q).name) not in productions:
            walks = [walk for alt in grammar.productions[item.name] for walk, end in paths(alt, p) if end == q]
            productions[name] = tuple(tuple(form(*part) for part in walk) for walk in walks)
            queue += [part for walk in walks for part in walk if isinstance(part[0], N)]
    productions.setdefault(grammar.start, tuple((form(*root),) for root in roots))  # unless the start stays whole
    return Grammar(start=grammar.start, productions=productions)


def _net_turn_automaton(final: Region) -> Automaton:  # #T - #W mod 3 from L; accepts the knots ending in ``final``
    edges = tuple((k, c, (k + turn) % 3) for k in range(3) for c, turn in (("T", 1), ("W", 2), ("U", 0), ("'", 0)))
    return Automaton(0, frozenset({TURN_OF_REGION[Region(final)]}), edges)
