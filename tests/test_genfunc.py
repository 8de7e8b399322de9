import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tieknot import genfunc as F
from tieknot import grammars as G
from tieknot.cli import main
from tieknot.enumeration import LANGUAGES
from tieknot.notation import Region
from conftest import _tuck_depth_cap
from test_cli import _wall_bound


def test_expand_fm_form():
    gf = F.parse_rational("z^3/((1+z)(1-2z))")
    series = F.expand(gf, 10)
    assert list(series) == [0, 0, 0, 1, 1, 3, 5, 11, 21, 43]


def test_expand_single_tuck_form():
    gf = F.parse_rational("2z^3(2z+1)/(1-6z^2)")
    series = F.expand(gf, 14)
    assert list(series)[3:] == [2, 4, 12, 24, 72, 144, 432, 864, 2592, 5184, 15552]


def test_expand_geometric():
    assert list(F.expand(F.parse_rational("1/(1-z)"), 5)) == [1, 1, 1, 1, 1]


def test_expand_requires_unit_constant_term():
    with pytest.raises(ZeroDivisionError):
        F.RationalGF((1,), (0, 1))


def test_expand_non_integral_series_raises():
    with pytest.raises(ValueError):
        F.expand(F.RationalGF((1,), (2, -2)), 3)


def test_fit_recurrence_zero_series():
    fitted = F.fit_recurrence(F.Series((0,) * 6), 2)
    assert list(F.expand(fitted, 6)) == [0] * 6


def test_compare_equal_and_mismatch():
    a = F.Series((1, 2, 3))
    assert F.compare(a, a) is None
    mismatch = F.compare(a, F.Series((1, 2, 4, 9)))
    assert mismatch == F.Mismatch(2, 3, 4)


def test_left_final_printed_form_disagrees_with_its_series():
    # The printed closed form expands with opposite signs; the printed
    # coefficients (which match the enumeration) are authoritative.
    printed_form = F.parse_rational("2z^4(2z^2-2z-1)/(1-6z^2)")
    printed_series = F.Series((0, 0, 0, 0, 2, 4, 8, 24, 48, 144, 288, 864, 1728, 5184))
    mismatch = F.compare(F.expand(printed_form, 14), printed_series)
    assert mismatch == F.Mismatch(4, -2, 2)


def test_left_final_refitted_form():
    printed_series = F.Series((0, 0, 0, 0, 2, 4, 8, 24, 48, 144, 288, 864, 1728, 5184))
    fitted = F.fit_recurrence(printed_series, 4)
    assert fitted is not None
    assert F.compare(F.expand(fitted, 14), printed_series) is None
    assert fitted.denominator == (1, 0, -6)
    assert fitted.numerator == (0, 0, 0, 0, 2, 4, -4)


def test_fit_recurrence_winding_series():
    series = F.Series((0, 0, 0, 1, 1, 3, 5, 11, 21, 43, 85, 171, 341, 683))
    fitted = F.fit_recurrence(series, 3)
    assert fitted is not None
    assert fitted.denominator == (1, -1, -2)
    assert F.compare(F.expand(fitted, len(series)), series) is None


def test_fit_recurrence_all_ones():
    fitted = F.fit_recurrence(F.Series((1,) * 8), 2)
    assert fitted == F.RationalGF((1,), (1, -1))


def test_fit_recurrence_full_series_has_no_small_rational_form():
    # The arbitrary-depth counting series is algebraic, not rational.
    series = G.count_by_size(G.full_grammar(), 16)
    assert F.fit_recurrence(series, 6) is None


def test_fit_recurrence_needs_enough_terms():
    with pytest.raises(ValueError):
        F.fit_recurrence(F.Series((1, 2)), 4)


def test_expansion_matches_grammar_counts():
    pairs = [
        ("z^3/((1+z)(1-2z))", G.fm_grammar(), 9),
        ("2z^3(2z+1)/(1-6z^2)", G.single_tuck_tw_grammar(), 13),
        ("z^3(2z^3-2z^2+z+1)/(1-6z^2)", G.single_tuck_clr_grammar(Region.RIGHT), 13),
        ("z^3(2z^3-2z^2+z+1)/(1-6z^2)", G.single_tuck_clr_grammar(Region.CENTER), 13),
    ]
    for text, grammar, order in pairs:
        expanded = F.expand(F.parse_rational(text), order + 1)
        counted = G.count_by_size(grammar, order)
        assert F.compare(expanded, counted) is None, text


def test_winding_pattern_series_total_powers_of_two():
    right = F.expand(F.parse_rational("z^3/(1-z-2z^2)"), 14)
    left = F.expand(F.parse_rational("2z^4/((1-2z)(1+z))"), 14)
    center = right
    for moves in range(3, 14):
        windings = moves - 1
        assert right[moves] + left[moves] + center[moves] == 2 ** (windings - 1)


def test_series_linearity():
    a = F.parse_rational("z/(1-z)")
    b = F.parse_rational("1/(1-2z)")
    combined = F.parse_rational("z/(1-z) + 1/(1-2z)")
    direct = F.expand(a, 10) + F.expand(b, 10)
    assert F.compare(direct, F.expand(combined, 10)) is None


def test_series_text_forms():
    series = F.Series((0, 2, 0, 5))
    assert str(series) == "0, 2, 0, 5"
    assert series.as_polynomial_text() == "2*z^1 + 5*z^3"


# Every form the tests, the README and the demos read, then edge forms
# of the written syntax, each with the normalized numerator and
# denominator it reads as.
READ_FORMS = [
    ("z^3/((1+z)(1-2z))", (0, 0, 0, 1), (1, -1, -2)),
    ("2z^3(2z+1)/(1-6z^2)", (0, 0, 0, 2, 4), (1, 0, -6)),
    ("1/(1-z)", (1,), (1, -1)),
    ("2z^4(2z^2-2z-1)/(1-6z^2)", (0, 0, 0, 0, -2, -4, 4), (1, 0, -6)),
    ("z^3(2z^3-2z^2+z+1)/(1-6z^2)", (0, 0, 0, 1, 1, -2, 2), (1, 0, -6)),
    ("z^3/(1-z-2z^2)", (0, 0, 0, 1), (1, -1, -2)),
    ("2z^4/((1-2z)(1+z))", (0, 0, 0, 0, 2), (1, -1, -2)),
    ("z/(1-z)", (0, 1), (1, -1)),
    ("1/(1-2z)", (1,), (1, -2)),
    ("z/(1-z) + 1/(1-2z)", (1, 0, -2), (1, -3, 2)),
    ("2 z", (0, 2), (1,)),
    (" z ^ 3 ", (0, 0, 0, 1), (1,)),
    ("1 2", (2,), (1,)),
    ("007z", (0, 7), (1,)),
    ("--z", (0, 1), (1,)),
    ("-+z", (0, -1), (1,)),
    ("z^0", (1,), (1,)),
    ("(z)^2", (0, 0, 1), (1,)),
    ("2z^2z", (0, 0, 0, 2), (1,)),
    ("(1+z)2", (2, 2), (1,)),
    ("z(1+z)(1-z)", (0, 1, 0, -1), (1,)),
    ("0", (), (1,)),
    ("z", (0, 1), (1,)),
    ("-z", (0, -1), (1,)),
    ("+z", (0, 1), (1,)),
    ("42", (42,), (1,)),
    ("z*z", (0, 0, 1), (1,)),
    ("z 2", (0, 2), (1,)),
    ("2 3z", (0, 6), (1,)),
    ("z z", (0, 0, 1), (1,)),
    ("(z)(z)", (0, 0, 1), (1,)),
    ("z-z", (), (1,)),
    ("z^10", (0,) * 10 + (1,), (1,)),
    ("(1+z)^3", (1, 3, 3, 1), (1,)),
    ("(2z)^2", (0, 0, 4), (1,)),
    ("2^3", (8,), (1,)),
    ("-2^2", (-4,), (1,)),
    ("-z^2", (0, 0, -1), (1,)),
    ("2*-z^2", (0, 0, -2), (1,)),
    ("1 - -z", (1, 1), (1,)),
    ("2(-z)", (0, -2), (1,)),
    ("z^2(1+z)", (0, 0, 1, 1), (1,)),
    ("z^2 3", (0, 0, 3), (1,)),
    ("6/(2-4z)", (3,), (1, -2)),
    ("-1/(-1+z)", (1,), (1, -1)),
    ("(1-z)/(1-z)", (1, -1), (1, -1)),
    ("z/2", (0, 1), (2,)),
    ("1/2/(1-z)", (1,), (2, -2)),
    ("1/2z", (0, 1), (2,)),
    ("z^3/2z", (0, 0, 0, 0, 1), (2,)),
    ("((z))", (0, 1), (1,)),
    ("0z", (), (1,)),
    ("1/(1-z)^2", (1,), (1, -2, 1)),
    ("z/(1-z)-z/(1-z)", (), (1, -2, 1)),
    ("0/(1+z)", (), (1, 1)),
    ("(1-z)^0", (1,), (1,)),
]


@pytest.mark.parametrize("text, numerator, denominator", READ_FORMS)
def test_parse_rational_reads_the_written_forms(text, numerator, denominator):
    assert F.parse_rational(text) == F.RationalGF(numerator, denominator)


@pytest.mark.parametrize("text, error", [
    ("z +", ValueError),
    ("q^2", ValueError),
    ("()", ValueError),
    ("z^(2)", ValueError),
    ("z^-1", ValueError),
    ("2^z", ValueError),
    ("z**2", ValueError),
    ("z//2", ValueError),
    ("", ValueError),
    (" ", ValueError),
    ("z^1^8", ValueError),
    ("+z^1^8", ValueError),
    ("(z", ValueError),
    ("z)", ValueError),
    ("z^", ValueError),
    ("^2", ValueError),
    ("z\t", ValueError),
    ("1.5", ValueError),
    ("1/z", ZeroDivisionError),
    ("1/(z-z)", ZeroDivisionError),
])
def test_parse_rational_rejects_junk(text, error):
    with pytest.raises(error) as refusal:
        F.parse_rational(text)
    assert "\n" not in str(refusal.value)


@pytest.mark.parametrize(
    "text", ["(" * 2000 + "z" + ")" * 2000, "-" * 5000 + "z"], ids=["2000-parentheses", "5000-minus-signs"]
)
def test_parse_rational_refuses_deep_nesting_as_a_value_error(text):
    with pytest.raises(ValueError):
        F.parse_rational(text)


_EXPONENT = re.compile(r"\^ *([0-9]+)")


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789z+-*/^() ", min_size=1, max_size=11))
def test_parse_rational_raises_only_value_and_zero_division_errors(text):
    assume(all(int(e) < 100 for e in _EXPONENT.findall(text)))
    try:
        F.parse_rational(text)
    except (ValueError, ZeroDivisionError):
        pass


# For every counting series, the smallest order at which fit_recurrence
# fits it and the form it gives (None: no fit up to order 16), as the
# order-by-order elimination found them.  Every series is counted to 36
# terms, so that every order up to 16 has enough terms after the
# longest lead of zeros (four, in l-final and windings-l).
FIT_TERMS = 36
FIT_TABLE = {
    "fm": (2, (0, 0, 0, 1), (1, -1, -2)),
    "single": (2, (0, 0, 0, 2, 4), (1, 0, -6)),
    "r-final": (4, (0, 0, 0, 1, 1, -2, 2), (1, 0, -6)),
    "l-final": (3, (0, 0, 0, 0, 2, 4, -4), (1, 0, -6)),
    "c-final": (4, (0, 0, 0, 1, 1, -2, 2), (1, 0, -6)),
    "full": None,
    "windings-l": (2, (0, 0, 0, 0, 2), (1, -1, -2)),
    "windings-c": (2, (0, 0, 0, 1), (1, -1, -2)),
    "windings-r": (2, (0, 0, 0, 1), (1, -1, -2)),
    "hidden": (1, (0, 0, 2), (1, -3)),
    "full-l": None,
    "full-c": None,
    "full-r": None,
}


def _table_series(name, capsys):
    """``series NAME`` as the CLI prints it, the hidden-tuck series, or
    the full grammar's series ending in one region (``full-l`` etc.)."""
    if name == "hidden":
        return G.count_by_size(G.hidden_tuck_grammar(), FIT_TERMS - 1)
    if name.startswith("full-"):
        return G.count_by_size(G.full_grammar(Region(name[-1].upper())), FIT_TERMS - 1)
    assert main(["series", name, str(FIT_TERMS - 1)]) == 0
    return F.Series(int(c) for c in capsys.readouterr().out.split(", "))


def test_fit_table_covers_every_series_the_cli_prints():
    printed = {name for language in LANGUAGES.values() for name in language.series}
    assert set(FIT_TABLE) == printed | {"hidden", "full-l", "full-c", "full-r"}


@pytest.mark.parametrize("name", sorted(FIT_TABLE))
def test_fit_recurrence_gives_each_series_its_recorded_form(name, capsys):
    series = _table_series(name, capsys)
    assert len(series) == FIT_TERMS
    first = FIT_TABLE[name]
    for order in range(17):
        fitted = F.fit_recurrence(series, order)
        if first is None or order < first[0]:
            assert fitted is None, order
        else:
            assert fitted == F.RationalGF(first[1], first[2]), order


@pytest.mark.parametrize("name", sorted(FIT_TABLE))
def test_fit_recurrence_needs_twice_the_order_past_the_leading_zeros(name, capsys):
    series = F.Series(_table_series(name, capsys)[:33])
    lead = next(i for i, c in enumerate(series) if c)
    for order in range(18):
        if 2 * order + lead > len(series):
            with pytest.raises(ValueError):
                F.fit_recurrence(series, order)
        else:
            F.fit_recurrence(series, order)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.integers(0, 3), st.integers(0, 4), st.data())
def test_fit_recurrence_recovers_integer_recurrences(order, lead, extra, data):
    q = data.draw(st.lists(st.integers(-4, 4), min_size=order, max_size=order))
    terms = data.draw(st.lists(st.integers(-9, 9), min_size=order, max_size=order))
    while len(terms) < 30:
        terms.append(sum(c * terms[-1 - i] for i, c in enumerate(q)))
    terms = [0] * lead + terms
    first = next((i for i, c in enumerate(terms) if c), 0)
    series = F.Series(terms[: first + 2 * order + extra])
    fitted = F.fit_recurrence(series, order)
    assert F.compare(F.expand(fitted, len(series)), series) is None
    assert len(fitted.denominator) - 1 <= order


def test_fit_recurrence_finds_no_rational_full_series_to_order_40_in_bounded_time():
    series = G.count_by_size(G.full_grammar(), 200)
    with _wall_bound(2):
        assert F.fit_recurrence(series, 40) is None


# The full language with every tuck at most D deep, by windings: D = 1
# is the single-tuck series, D = 2 is rational too, and D = 3 has no
# rational form of order <= 40 (all checked guesses on 201 terms).
@pytest.mark.parametrize("depth, total, form", [
    (1, 24882, F.parse_rational("(2z^2+4z^3)/(1-6z^2)")),
    (2, 81978, F.parse_rational("(2z^2+4z^3+6z^4+12z^5)/(1-7z^2-2z^4)")),
    (3, 165210, None),
])
def test_tuck_depth_capped_series(depth, total, form):
    grammar = G.intersect(G.full_grammar(), _tuck_depth_cap(depth))
    series = G.count_by_size(grammar, 200)
    assert F.Series(series[:13]).total() == total
    assert F.fit_recurrence(series, 40) == form


# Each of these would take seconds to minutes, or more memory than the
# machine has, without the reader's bounds.
@pytest.mark.parametrize("text", [
    "(z^99)^99",
    "z^99999999",
    "2^99999999",
    "((2^1000)^1000)^1000",
    "((1+z)^1000)^1000",
    "(1+z)^1000(1+z)^1000",
])
def test_parse_rational_refuses_too_large_a_form_in_bounded_time(text):
    with _wall_bound(3), pytest.raises(ValueError):
        F.parse_rational(text)


def test_parse_rational_reads_up_to_its_bounds():
    assert F.parse_rational("(1+z)^1000").numerator == tuple(math.comb(1000, k) for k in range(1001))
    assert F.parse_rational(f"z^{F.MAX_DEGREE}").numerator == (0,) * F.MAX_DEGREE + (1,)
    with pytest.raises(ValueError, match="exponent"):
        F.parse_rational(f"z^{F.MAX_DEGREE + 1}")
    with pytest.raises(ValueError, match="degree"):
        F.parse_rational(f"z^{F.MAX_DEGREE}z")


def _repeated_power(base, exponent):
    # The reader's earlier rule: multiply the base in one factor at a time, bounding each product.
    value = F.RationalGF((1,))
    for _ in range(exponent):
        value = F._bounded(F._mul(value, base))
    return value


def _outcome(power, base, exponent):
    try:
        return power(base, exponent)
    except ValueError as refusal:
        return str(refusal)


POWER_BASES = ["1+z", "2-3z", "z", "3", "-1", "0", "(1+z)/(1-2z)", "z/(1-z^2)", "7z^3+1", "1000z^2-999"]


@pytest.mark.parametrize("bounds", [(F.MAX_DEGREE, F.MAX_BITS), (40, 300)], ids=["reader", "small"])
def test_powers_by_squaring_match_repeated_products_and_their_refusals(bounds, monkeypatch):
    monkeypatch.setattr(F, "MAX_DEGREE", bounds[0])
    monkeypatch.setattr(F, "MAX_BITS", bounds[1])
    refused = 0
    for text in POWER_BASES:
        base = F.parse_rational(text)
        for exponent in range(41):
            expected = _outcome(_repeated_power, base, exponent)
            assert _outcome(F._power, base, exponent) == expected, (text, exponent)
            refused += isinstance(expected, str)
    assert refused > 0 if bounds[0] == 40 else refused == 0


def test_polynomial_product_matches_the_schoolbook_loop():
    def schoolbook(a, b):
        out = [0] * (len(a) + len(b) - 1 or 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return tuple(out)

    rng = random.Random(7)
    for _ in range(2000):
        a, b = (tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 8))) for _ in range(2))
        assert F._pmul(a, b) == schoolbook(a, b), (a, b)


def test_large_powers_finish_in_bounded_time():
    with _wall_bound(0.3):
        assert F.parse_rational("(1+z)^1000").numerator == tuple(math.comb(1000, k) for k in range(1001))
    with _wall_bound(0.3), pytest.raises(ValueError, match="coefficient bits"):
        F.parse_rational("((2^1000)^1000)^1000")
