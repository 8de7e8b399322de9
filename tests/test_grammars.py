import functools
import gc
import itertools
from collections import Counter

import pytest

from tieknot import grammars as G
from tieknot.notation import Region, sort_key

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
