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
from .genfunc import Mismatch, RationalGF, Series, compare, expand, fit_recurrence, parse_rational
from .grammars import (
    Automaton,
    Grammar,
    count_by_size,
    fm_grammar,
    full_grammar,
    generate,
    single_tuck_automaton,
    single_tuck_clr_grammar,
    single_tuck_tw_grammar,
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
