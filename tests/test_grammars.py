import functools
import gc
import itertools
import random
from collections import Counter

import pytest

from conftest import raw_full_grammar
from tieknot import enumeration as E
from tieknot import grammars as G
from tieknot.notation import TURN_OF_REGION, Region, canonicalize_tws, sort_key

THE_TWENTY = {
    "TTTTU", "TTWWU", "TWTTU", "TWWWU",
    "WTTTU", "WTWWU", "WWTTU", "WWWWU",
    "TTUTTU", "TTUWWU", "WWUTTU", "WWUWWU",
    "TTTWUU", "TTWTUU", "TWTTUU", "TWTTU'UU",
    "WTWWUU", "WTWWU'UU", "WWTWUU", "WWWTUU",
}


def test_fm_series():
    series = G.count_by_size(G.fm_grammar(), 9)
    assert list(series) == [0, 0, 0, 1, 1, 3, 5, 11, 21, 43]
    assert series.total() == 85


def test_fm_smallest_member():
    members = G.generate(G.fm_grammar(), 3)
    assert members == ["LRCU"]


def test_fm_never_repeats_a_region():
    for member in G.generate(G.fm_grammar(), 8):
        walk = [c for c in member if c != "U"]
        assert all(a != b for a, b in zip(walk, walk[1:]))


def test_single_tuck_series():
    series = G.count_by_size(G.single_tuck_tw_grammar(), 13)
    assert list(series) == [0, 0, 0, 2, 4, 12, 24, 72, 144, 432, 864, 2592, 5184, 15552]
    assert series.total() == 24882


def test_single_tuck_small_members():
    sizes = G.generate_with_sizes(G.single_tuck_tw_grammar(), 5)
    assert {m for m, s in sizes.items() if s == 3} == {"TTU", "WWU"}
    five = {m for m, s in sizes.items() if s == 5}
    assert len(five) == 12
    assert "TTUTTU" in five  # one internal plus the final tuck
    assert "TWU" not in sizes


def test_single_tuck_clr_series_per_region():
    expect = {
        Region.RIGHT: [0, 0, 0, 1, 1, 4, 8, 24, 48, 144, 288, 864, 1728, 5184],
        Region.LEFT: [0, 0, 0, 0, 2, 4, 8, 24, 48, 144, 288, 864, 1728, 5184],
        Region.CENTER: [0, 0, 0, 1, 1, 4, 8, 24, 48, 144, 288, 864, 1728, 5184],
    }
    total = None
    for region, coeffs in expect.items():
        series = G.count_by_size(G.single_tuck_clr_grammar(region), 13)
        assert list(series) == coeffs
        total = series if total is None else total + series
    combined = G.count_by_size(G.single_tuck_clr_grammar(None), 13)
    assert list(total) == list(combined)
    assert list(combined)[3:] == [2, 4, 12, 24, 72, 144, 432, 864, 2592, 5184, 15552]


def test_full_series():
    series = G.count_by_size(G.full_grammar(), 12)
    assert list(series) == [0, 0, 2, 4, 20, 40, 192, 384, 1896, 3792, 19320, 38640, 202392]
    assert series.total() == 266682


def test_full_series_tail():
    series = G.count_by_size(G.full_grammar(), 14)
    assert series[13] == 404784
    assert series[14] == 2169784


def test_full_twenty_at_four_windings():
    sizes = G.generate_with_sizes(G.full_grammar(), 4)
    assert {m for m, s in sizes.items() if s == 4} == THE_TWENTY
    assert "TWTTU'UU" in sizes


def test_full_grammar_writes_the_canonical_text_of_each_raw_member(full_members_12, raw_full_members_12):
    raw = list(raw_full_members_12)
    assert sum("'" in text for text in raw) > sum("'" in text for text in full_members_12) > 0
    canonical = dict(zip(canonicalize_tws(raw), raw_full_members_12.values()))
    assert len(canonical) == len(raw) == 266682  # no two raw members share a canonical text
    assert canonical == full_members_12  # the same members, each at the same size


@pytest.mark.parametrize("final", [None, *Region], ids=str)
def test_full_grammar_counts_as_the_raw_referee_to_1000_windings(final):
    series = G.count_by_size(G.full_grammar(final), 1000)
    assert list(series) == list(G.count_by_size(raw_full_grammar(final), 1000))


def test_counts_match_generation_buckets():
    for grammar, bound in [
        (G.fm_grammar(), 9),
        (G.single_tuck_tw_grammar(), 13),
        (G.single_tuck_clr_grammar(Region.LEFT), 13),
        (G.single_tuck_clr_grammar(Region.RIGHT), 13),
        (G.single_tuck_clr_grammar(Region.CENTER), 13),
        (G.single_tuck_clr_grammar(None), 13),
        (G.full_grammar(), 13),
        *((G.full_grammar(region), 11) for region in Region),
    ]:
        series = G.count_by_size(grammar, bound)
        buckets = Counter(G.generate_with_sizes(grammar, bound).values())
        assert [buckets[size] for size in range(bound + 1)] == list(series)


def test_ambiguous_grammar_yields_each_member_once():
    # "xxx" derives two ways (x.xx and xx.x); the count sees both.
    x = G.T("x")
    pairs = G.Grammar(
        start="s", productions={"s": ((G.N("a"), G.N("a")),), "a": ((x,), (x, x))}
    )
    assert list(G.count_by_size(pairs, 4)) == [0, 0, 1, 2, 1]
    assert G.generate_with_sizes(pairs, 4) == {"xx": 2, "xxx": 3, "xxxx": 4}
    assert G.generate(pairs, 4) == ["xx", "xxx", "xxxx"]


def test_three_nonterminal_alternative_splits_every_way():
    x = G.T("x")
    triples = G.Grammar(
        start="s", productions={"s": ((G.N("a"),) * 3,), "a": ((x,), (x, x))}
    )
    assert list(G.count_by_size(triples, 6)) == [0, 0, 0, 1, 3, 3, 1]
    assert G.generate_with_sizes(triples, 6) == {"x" * n: n for n in range(3, 7)}


def test_recursion_without_a_zero_weight_cycle_counts():
    x, s, item = G.T("x"), G.N("s"), G.N("item")
    cases = [
        # Catalan numbers: s s reaches s at size 0, where it has no member.
        ({"s": ((s, s), (x,))}, [0, 1, 1, 2, 5, 14]),
        # Left and right recursion, with and without an empty list.
        ({"s": ((s, item), (item,)), "item": ((x,),)}, [0, 1, 1, 1, 1, 1]),
        ({"s": ((item, s), (item,)), "item": ((x,),)}, [0, 1, 1, 1, 1, 1]),
        ({"s": ((s, item), ()), "item": ((x,),)}, [1, 1, 1, 1, 1, 1]),
        ({"s": ((item, s), ()), "item": ((x,),)}, [1, 1, 1, 1, 1, 1]),
        # s reaches itself through `tail` at size 0, but only next to an
        # item, which has no member there.
        ({"s": ((item, G.N("tail")), ()), "tail": ((s,),), "item": ((x,),)}, [1, 1, 1, 1, 1, 1]),
    ]
    for productions, counts in cases:
        grammar = G.Grammar(start="s", productions=productions)
        assert list(G.count_by_size(grammar, 5)) == counts
        # Every member is a run of x, so counting derivations (Catalan)
        # can exceed the members, but not where there are none.
        assert G.generate(grammar, 5) == ["x" * size for size in range(6) if counts[size]]


def test_full_series_to_400_windings():
    # The region-final series partition the plain one, and an odd bucket
    # is twice the even one before it: a(2k + 1) = 2 a(2k).
    total = list(G.count_by_size(G.full_grammar(), 400))
    by_region = [G.count_by_size(G.full_grammar(region), 400) for region in Region]
    assert [sum(column) for column in zip(*by_region)] == total
    assert all(total[n] == 2 * total[n - 1] for n in range(3, 401, 2))


def test_generate_order_is_deterministic():
    members = G.generate(G.single_tuck_tw_grammar(), 5)
    assert members[:6] == ["TTU", "WWU", "TTTU", "TWWU", "WTTU", "WWWU"]
    assert members == sorted(members, key=lambda s: (len([c for c in s if c in "TW"]) + 1, sort_key(s)))


def test_generate_empty_bound():
    assert G.generate(G.fm_grammar(), 0) == []


def test_zero_weight_cycle_detected():
    loop = G.Grammar(
        start="a",
        productions={"a": ((G.N("b"),), (G.T("x"),)), "b": ((G.N("a"),),)},
    )
    with pytest.raises(G.GrammarError):
        G.count_by_size(loop, 3)
    with pytest.raises(G.GrammarError):
        G.generate_with_sizes(loop, 3)


def test_zero_weight_cycle_through_epsilon_detected():
    # s -> e s with e -> epsilon derives s from s without growing; the
    # counts diverge from the first size at which s has a member.
    for base, size in (((G.T("x"),), 1), ((), 0)):
        loop = G.Grammar(
            start="s", productions={"s": ((G.N("e"), G.N("s")), base), "e": ((),)}
        )
        with pytest.raises(G.GrammarError, match=f"'s' at size {size}"):
            G.count_by_size(loop, 3)
        with pytest.raises(G.GrammarError, match=f"'s' at size {size}"):
            G.generate_with_sizes(loop, 3)


BUILT_IN_GRAMMARS = [
    G.fm_grammar, G.single_tuck_tw_grammar, G.single_tuck_clr_grammar, G.full_grammar,
    *(functools.partial(factory, region)
      for factory in (G.single_tuck_clr_grammar, G.full_grammar) for region in Region),
]


@pytest.mark.parametrize(
    "factory", BUILT_IN_GRAMMARS,
    ids=lambda f: f"{f.func.__name__}-{f.args[0].value}" if f.__class__ is functools.partial else f.__name__,
)
def test_counting_and_generation_leave_no_garbage_cycles(factory):
    # With the collector off, a call that left its tables in a reference
    # cycle would leave objects that only gc.collect() finds.
    grammar = factory()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        G.count_by_size(grammar, 20)
        assert gc.collect() == 0
        G.generate_with_sizes(grammar, 8)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_undefined_nonterminal_rejected():
    with pytest.raises(G.GrammarError):
        G.Grammar(start="a", productions={"a": ((G.N("missing"),),)})


def test_grammar_text_round_trips_visually():
    text = G.fm_grammar().to_text()
    assert '<tie> ::= "L" <lastL>' in text
    assert "<empty>" not in text
    assert "<empty>" in G.full_grammar().to_text()  # the epsilon interior


def test_automaton_accepts_basics():
    automaton = G.single_tuck_automaton()
    assert automaton.accepts("TTU")
    assert automaton.accepts("TWWTTU")
    assert not automaton.accepts("TWTU")
    assert not automaton.accepts("")
    assert not automaton.accepts("TTUX")


def test_automaton_agrees_with_grammar_to_length_9():
    automaton = G.single_tuck_automaton()
    members = set(G.generate(G.single_tuck_tw_grammar(), 10))
    short_members = {m for m in members if len(m) <= 9}
    accepted = set()
    for length in range(0, 10):
        for combo in itertools.product("TWU", repeat=length):
            text = "".join(combo)
            if automaton.accepts(text):
                accepted.add(text)
    assert accepted == short_members


def test_single_tuck_grammar_equals_depth1_validity_to_9_symbols():
    # Exhaustive over T/W/U strings of up to nine symbols: membership in
    # the single-tuck grammar coincides with the depth-1 validity rules.
    from tieknot.notation import NotationError, parse_tw
    from tieknot.validity import ValidityOptions, validate

    members = set(G.generate(G.single_tuck_tw_grammar(), 10))
    opts = ValidityOptions(max_tuck_depth=1)
    for length in range(1, 10):
        for combo in itertools.product("TWU", repeat=length):
            text = "".join(combo)
            try:
                knot = parse_tw(text)
            except NotationError:
                assert text not in members
                continue
            assert validate(knot, opts).valid == (text in members), text


# ---------------------------------------------------------------------------
# The product of a grammar with a deterministic automaton.


def net_turn_automaton(region):
    """#T - #W mod 3 from L, accepting the words whose final region is ``region``."""
    turn = {"T": 1, "W": 2, "U": 0, "'": 0}
    return G.Automaton(
        states=frozenset(range(3)), initial=0, accepting=frozenset({TURN_OF_REGION[region]}),
        transitions=tuple((k, c, (k + t) % 3) for k in range(3) for c, t in turn.items()),
    )


@pytest.mark.parametrize("factory", [G.full_grammar, G.hidden_tuck_grammar], ids=lambda f: f.__name__)
def test_intersect_keeps_what_the_automaton_accepts_to_9_windings(factory):
    plain = G.generate_with_sizes(factory(), 9)
    for region in Region:
        automaton = net_turn_automaton(region)
        assert G.generate_with_sizes(G.intersect(factory(), automaton), 9) == {
            m: n for m, n in plain.items() if automaton.accepts(m)
        }


@pytest.mark.parametrize("factory", [G.full_grammar, G.hidden_tuck_grammar], ids=lambda f: f.__name__)
def test_intersect_with_an_automaton_that_accepts_everything_keeps_the_counts(factory):
    anything = G.Automaton(
        states=frozenset({"s"}), initial="s", accepting=frozenset({"s"}),
        transitions=tuple(("s", c, "s") for c in "TWU'"),
    )
    assert G.count_by_size(G.intersect(factory(), anything), 40) == G.count_by_size(factory(), 40)


def test_intersect_with_no_two_us_in_a_row_is_the_single_tuck_language():
    # A partial automaton, not a group: the second U of a row has no edge.
    no_uu = G.Automaton(
        states=frozenset({"bare", "U"}), initial="bare", accepting=frozenset({"bare", "U"}),
        transitions=tuple((s, c, "U" if c == "U" else "bare") for s in ("bare", "U") for c in "TWU'"
                          if (s, c) != ("U", "U")),
    )
    members = G.generate(G.intersect(G.full_grammar(), no_uu), 12)
    assert len(members) == 24882
    assert set(members) == set(E.single_tuck_knots(12))


def test_intersect_refuses_a_nondeterministic_automaton():
    with pytest.raises(G.GrammarError, match="not deterministic"):
        G.intersect(G.full_grammar(), G.single_tuck_automaton())  # an empty label, and TT beside T
    twice = G.Automaton(
        states=frozenset({"a", "b"}), initial="a", accepting=frozenset({"a"}),
        transitions=(("a", "T", "a"), ("a", "T", "b")),
    )
    with pytest.raises(G.GrammarError, match="not deterministic"):
        G.intersect(G.full_grammar(), twice)


def test_region_final_full_grammar_keeps_the_tuck_interiors_whole():
    # Every member of a tuck interior or of one tuck kind turns the knot
    # by the same amount, so the product keeps them as they are.
    plain, product = G.full_grammar().productions, G.full_grammar(Region.RIGHT).productions
    for name in ("w0", "w1", "w2", "ttuck2", "wtuck2"):
        assert product[name] == plain[name]
    assert {name.split("|")[0] for name in product if "|" in name} == {"tie", "body", "tuck"}


# ---------------------------------------------------------------------------
# The compiled engine against the split engine it replaced, kept here as
# the referee: a lazily recursive count(name, size) whose sizes come from
# one generator of splits.


def _shares(items, size, count, nullable):
    """Each split of ``size`` among ``items`` (a terminal takes its weight,
    the last nonterminal what the others leave) with the product of the
    nonterminals' counts, never 0.  A count is read only once the other
    parts are known to be nonzero: those before it by their counts and,
    when it takes all of ``size``, those after it by being nullable."""
    sizes = [item.weight if isinstance(item, G.T) else None for item in items]
    places = [k for k, item in enumerate(items) if isinstance(item, G.N)]
    weight = sum(filter(None, sizes))

    def split(j, left, ways):
        if j == len(places):
            yield tuple(sizes), ways
            return
        for share in range(left + 1) if j < len(places) - 1 else (left,):
            if share == size and any(items[k].name not in nullable for k in places[j + 1:]):
                continue
            sizes[places[j]] = share
            more = count(items[places[j]].name, share)
            if more:
                yield from split(j + 1, left - share, ways * more)

    if size > weight and places or size == weight:
        yield from split(0, size - weight, 1)


def _split_count_tables(grammar, max_size):
    nullable = G._nullable(grammar)
    counts = {name: [] for name in grammar.productions}
    reentered = set()

    def count(name, size):
        row = counts[name]
        if size == len(row):
            row.append(None)
            alts = grammar.productions[name]
            row[size] = sum(ways for alt in alts for _, ways in _shares(alt, size, count, nullable))
            if row[size] and (name, size) in reentered:
                raise G.GrammarError(f"zero-weight cycle through {name!r} at size {size}")
        if row[size] is None:
            reentered.add((name, size))
            return 0
        return row[size]

    for size in range(max_size + 1):
        for name in grammar.productions:
            count(name, size)
    return count, nullable


def split_count_by_size(grammar, max_size):
    count, _ = _split_count_tables(grammar, max_size)
    return [count(grammar.start, size) for size in range(max_size + 1)]


def split_generate_with_sizes(grammar, max_size):
    count, nullable = _split_count_tables(grammar, max_size)

    @functools.cache
    def members(name, size):
        out = []
        for alt in grammar.productions[name]:
            for sizes, _ in _shares(alt, size, count, nullable):
                pieces = (members(i.name, n) if isinstance(i, G.N) else (i.symbol,) for i, n in zip(alt, sizes))
                out += map("".join, itertools.product(*pieces))
        return out

    sizes = {}
    for size in range(max_size + 1):
        for text in members(grammar.start, size):
            sizes.setdefault(text, size)
    return sizes


def random_grammar(seed):
    """At most four nonterminals with one to three alternatives of zero to
    three items each: terminals of weight 0, 1 and 2 (each its own
    symbol, so a text has one size) and nonterminals, which make unit
    productions, self-embedding, zero-weight cycles and ambiguity."""
    rng = random.Random(seed)
    names = ["s", "a", "b", "c"][: rng.randint(1, 4)]
    terminals = [G.T("u", 0), G.T("x"), G.T("y", 2)]

    def item():
        return G.N(rng.choice(names)) if rng.random() < 0.45 else rng.choice(terminals)

    productions = {
        name: tuple(tuple(item() for _ in range(rng.randint(0, 3))) for _ in range(rng.randint(1, 3)))
        for name in names
    }
    return G.Grammar(start="s", productions=productions)


def outcome(engine, grammar, max_size):
    try:
        result = engine(grammar, max_size)
    except G.GrammarError as error:
        return "GrammarError", str(error)
    return list(result.items()) if isinstance(result, dict) else list(result)


PARITY_SEEDS = range(300)


def test_compiled_engine_matches_the_split_engine_on_random_grammars():
    errors = 0
    for seed in PARITY_SEEDS:
        grammar = random_grammar(seed)
        counted = outcome(split_count_by_size, grammar, 12)
        assert outcome(G.count_by_size, grammar, 12) == counted, (seed, grammar.to_text())
        generated = outcome(split_generate_with_sizes, grammar, 6)
        assert outcome(G.generate_with_sizes, grammar, 6) == generated, (seed, grammar.to_text())
        errors += counted[0] == "GrammarError"
    # The seeds reach both verdicts often enough to mean something.
    assert 30 <= errors <= 270


def test_compiled_engine_matches_the_split_engine_on_the_built_in_grammars():
    for factory in BUILT_IN_GRAMMARS:
        grammar = factory()
        assert list(G.count_by_size(grammar, 30)) == split_count_by_size(grammar, 30)
        assert list(G.generate_with_sizes(grammar, 8).items()) == list(split_generate_with_sizes(grammar, 8).items())
