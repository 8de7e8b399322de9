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
