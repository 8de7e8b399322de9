import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tieknot import genfunc as F
from tieknot import grammars as G
from tieknot.notation import Region


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
