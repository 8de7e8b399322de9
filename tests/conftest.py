import functools
import itertools

import pytest

from tieknot import enumeration, grammars
from tieknot.notation import Region


@pytest.fixture(scope="session")
def single_tuck_members_13():
    """Single-tuck language to 13 moves, from the grammar, with sizes."""
    return grammars.generate_with_sizes(grammars.single_tuck_tw_grammar(), 13)


@pytest.fixture(scope="session")
def full_members_12():
    """Arbitrary-depth language to 12 windings, from the grammar, with sizes."""
    return grammars.generate_with_sizes(grammars.full_grammar(), 12)


def raw_full_grammar(final=None):
    """Referee: the arbitrary-depth grammar in raw text.  Its members carry
    an apostrophe after every finished inner tuck, even ahead of a winding
    (``TTTTU'WWTWUUUU``); the canonical apostrophe placement of each is a
    member of ``grammars.full_grammar``, which writes no other."""
    t, w, U, sep = grammars.T("T"), grammars.T("W"), grammars.T("U", 0), grammars.T("'", 0)
    N = grammars.N
    pairs = (((t, t), 2), ((t, w), 0), ((w, t), 0), ((w, w), 1))
    tucks = (((N("ttuck2"),), 2), ((N("wtuck2"),), 1))
    productions = {
        "tie": ((t, N("body")), (w, N("body")), (N("body"),)),
        "body": tuple(items + (N("body"),) for items, _ in pairs) + ((N("tuck"), N("body")), (N("tuck"),)),
        "tuck": tuple(items for items, _ in tucks),
        "ttuck2": ((t, t, N("w0"), U), (t, w, N("w1"), U)),
        "wtuck2": ((w, w, N("w0"), U), (w, t, N("w2"), U)),
    }
    for k in range(3):
        productions[f"w{k}"] = tuple(
            [items + (N(f"w{(k + turn) % 3}"), U) for items, turn in pairs[::-1]]
            + [items + (sep, N(f"w{(k + turn) % 3}"), U) for items, turn in tucks]
        ) + (((),) if k == 0 else ())
    grammar = grammars.Grammar(start="tie", productions=productions)
    return grammar if final is None else grammars.intersect(grammar, grammars._net_turn_automaton(final))


@pytest.fixture(scope="session")
def raw_full_members_12():
    """Arbitrary-depth language to 12 windings in raw text, from the referee grammar, with sizes."""
    return grammars.generate_with_sizes(raw_full_grammar(), 12)


@pytest.fixture(scope="session")
def full_oracle_12():
    """Arbitrary-depth language to 12 windings, from the structural oracle."""
    return enumeration.full_language(12)


@pytest.fixture(scope="session")
def census_12():
    return enumeration.census(12)


@functools.cache
def _listed_classes(max_windings):
    classes = {region: [] for region in Region}
    for n in range(2, max_windings + 1):
        for letters in itertools.product("TW", repeat=n):
            w = "".join(letters)
            if w[-1] == w[-2]:
                classes[enumeration.final_region_of(w)].append(w)
    return classes


@pytest.fixture(scope="session")
def listed_classes():
    """Referee: ``listed_classes(n)`` lists every T/W string of 2..n
    windings and keeps the winding patterns (last two windings equal),
    by final region, in (length, alphabet) order.  The library counts
    and ranks patterns from a table; this listing is what it must match."""
    return _listed_classes
