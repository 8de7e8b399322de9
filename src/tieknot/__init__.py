"""tieknot: the formal language of necktie knots.

Parse and convert the two knot notations, validate knots against the
tie axioms, enumerate whole knot languages, count them with grammars
and exact generating functions, and name the results.
"""

from .notation import (
    FinalClass,
    KnotMetrics,
    KnotWord,
    NotationError,
    Orientation,
    Region,
    RegionWord,
    Tuck,
    Visit,
    WindDir,
    canonicalize_tw,
    classify_final,
    clr_to_tw,
    final_region,
    infer_orientations,
    mirror,
    parse_clr,
    parse_tw,
    render_instructions,
    tw_to_clr,
)
from .validity import (
    ValidityOptions,
    ValidityReport,
    Violation,
    tuck_parity_ok,
    tuck_site_valid,
    tuck_sites,
    validate,
    validate_clr,
)
from .enumeration import (
    CensusRow,
    census,
    cross_check,
    full_language,
    hidden_tuck_counts,
    oracle_enumerate,
)
from .catalog import (
    KnotName,
    NamedKnot,
    NamingError,
    balance,
    knot_of,
    name_of,
    registry,
    symmetry,
)

__version__ = "0.1.0"

# The counting stack (grammars, genfunc and, through them, fractions) loads on first use, so
# parsing, validating, listing and naming never load it.  Its names are never kept here: each
# access reads the defining module's current binding.
_COUNTING = {
    "genfunc": ("Mismatch", "RationalGF", "Series", "compare", "expand", "fit_recurrence", "parse_rational"),
    "grammars": ("Automaton", "Grammar", "count_by_size", "fm_grammar", "full_grammar", "generate",
                 "single_tuck_automaton", "single_tuck_clr_grammar", "single_tuck_tw_grammar"),
}
_HOME = {name: module for module, names in _COUNTING.items() for name in names}
__all__ = sorted([name for name in globals() if not name.startswith("_")] + [*_COUNTING, *_HOME])


def __getattr__(name):
    from importlib import import_module

    if name in _COUNTING:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
