"""Exact integer power series and rational generating functions.

A :class:`Series` is a truncated integer coefficient vector indexed by
size; a :class:`RationalGF` is a pair of integer polynomials N(z)/D(z)
with D(0) != 0.  Expansion runs the linear recurrence induced by the
denominator, so coefficients stay exact however large they grow (the
counts handled here pass two million well before order 15).

:func:`fit_recurrence` goes the other way: given enough terms of a
series it recovers the smallest constant-coefficient linear recurrence
consistent with all of them, hence a rational form, or reports that
none exists within the requested order.  One Berlekamp-Massey pass over
the terms, in :class:`fractions.Fraction` arithmetic, finds it; the
pass stops as soon as the recurrence outgrows the requested order.

:func:`parse_rational` writes out a form's implied ``*`` and ``^`` as
``**``, and Python's own parser reads the result.  It refuses exponents
and degrees above ``MAX_DEGREE`` and polynomials over ``MAX_BITS``
coefficient bits, so every text is read or refused in bounded time.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from itertools import zip_longest
from math import gcd, lcm
from operator import mul
from typing import Optional


def _strip(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class Series:
    """Integer coefficients by size; the length is the truncation order."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(int(c) for c in self.coefficients))

    def __getitem__(self, index):
        return self.coefficients[index]

    def __len__(self):
        return len(self.coefficients)

    def __iter__(self):
        return iter(self.coefficients)

    def __add__(self, other: "Series") -> "Series":
        n = min(len(self), len(other))
        return Series(tuple(self[i] + other[i] for i in range(n)))

    def total(self) -> int:
        return sum(self.coefficients)

    def __str__(self):
        return ", ".join(str(c) for c in self.coefficients)

    def as_polynomial_text(self) -> str:
        terms = [
            f"{c}*z^{d}" for d, c in enumerate(self.coefficients) if c
        ]
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class Mismatch:
    """First index where two series disagree."""

    index: int
    left: int
    right: int

    def __str__(self):
        return f"first mismatch at z^{self.index}: {self.left} != {self.right}"


def compare(a: Series, b: Series) -> Optional[Mismatch]:
    """``None`` when equal up to the shorter truncation, else the first
    disagreeing index with both values."""
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            return Mismatch(i, a[i], b[i])
    return None


@dataclass(frozen=True)
class RationalGF:
    """N(z)/D(z) with integer coefficient lists, D(0) != 0."""

    numerator: tuple
    denominator: tuple = (1,)

    def __post_init__(self):
        num = _strip(int(c) for c in self.numerator)
        den = _strip(int(c) for c in self.denominator)
        if not den or den[0] == 0:
            raise ZeroDivisionError("denominator must have a nonzero constant term")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def normalized(self) -> "RationalGF":
        """Divide out the integer content; make the constant term of the
        denominator positive."""
        parts = [c for c in self.numerator + self.denominator if c]
        g = 0
        for c in parts:
            g = gcd(g, abs(c))
        g = g or 1
        sign = -1 if self.denominator[0] < 0 else 1
        g *= sign
        return RationalGF(
            tuple(c // g for c in self.numerator),
            tuple(c // g for c in self.denominator),
        )

    def __str__(self):
        return f"({_poly_text(self.numerator)}) / ({_poly_text(self.denominator)})"


def _poly_text(coeffs) -> str:
    terms = []
    for d, c in enumerate(coeffs):
        if not c:
            continue
        if d == 0:
            terms.append(str(c))
        elif d == 1:
            terms.append(f"{c}*z")
        else:
            terms.append(f"{c}*z^{d}")
    return " + ".join(terms) if terms else "0"


def expand(gf: RationalGF, order: int) -> Series:
    """Coefficients of N(z)/D(z) up to (excluding) ``order``.

    With D = d0 + d1 z + ..., the series a satisfies
    d0*a[n] = N[n] - sum(d[i]*a[n-i]); d0 must divide exactly at every
    step for an integer series, which holds for every form handled here
    (a nonzero remainder raises).
    """
    num, den = gf.numerator, gf.denominator
    d0 = den[0]
    out = []
    for n in range(order):
        value = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            value -= den[i] * out[n - i]
        q, r = divmod(value, d0)
        if r:
            raise ValueError(f"series of {gf} is not integral at z^{n}")
        out.append(q)
    return Series(tuple(out))


def fit_recurrence(series: Series, max_order: int) -> Optional[RationalGF]:
    """Recover a rational generating function from a series, if one exists.

    One Berlekamp-Massey pass (Massey, 1969) over the terms from the
    first nonzero one finds the shortest recurrence
    a[n] = q_1 a[n-1] + ... + q_r a[n-r] that every available index past
    the leading zeros satisfies, and returns it as an integer RationalGF
    (num/den cleared of fractions), or None as soon as r passes
    ``max_order``.  Requires at least 2*max_order + lead terms, with
    which a recurrence of order <= max_order is unique.
    """
    coeffs = list(series.coefficients)
    lead = next((i for i, c in enumerate(coeffs) if c), len(coeffs))
    if lead == len(coeffs):
        return RationalGF((0,), (1,))
    if len(coeffs) < 2 * max_order + lead:
        raise ValueError(
            f"need at least {2 * max_order + lead} coefficients to fit order {max_order}"
        )
    from fractions import Fraction

    # den is 1 - q_1 z - ... - q_r z^r; before is den as it was before the
    # last change of order r, last the discrepancy there, gap the steps since.
    terms = coeffs[lead:]
    den, before, last, gap, order = [Fraction(1)], [Fraction(1)], Fraction(1), 1, 0
    for n, term in enumerate(terms):
        miss = sum((den[i] * terms[n - i] for i in range(1, len(den))), Fraction(term))
        if miss:
            shift = [0] * gap + [miss / last * c for c in before]
            den, previous = [a - b for a, b in zip_longest(den, shift, fillvalue=0)], den
            if 2 * order <= n:
                before, last, gap, order = previous, miss, 0, n + 1 - order
                if order > max_order:
                    return None
        gap += 1
    scale = lcm(*(c.denominator for c in den))
    den = [int(c * scale) for c in den]
    num = [sum(d * coeffs[n - i] for i, d in enumerate(den[: n + 1])) for n in range(lead + order)]
    return RationalGF(tuple(num), tuple(den)).normalized()


# ---------------------------------------------------------------------------
# Reading written forms like "z^3/((1+z)(1-2z))" with Python's own parser.

_TOKEN_CHARS = set("0123456789z+-*/^() ")
MAX_DEGREE = 1000  # the largest exponent, and degree of any polynomial built, that the reader accepts
MAX_BITS = 1 << 20  # the most coefficient bits, all told, of any polynomial built


def parse_rational(text: str) -> RationalGF:
    """Read an integer-coefficient rational function of z.

    Supports + - * / ^ and parentheses, with multiplication implied by
    adjacency (``2z``, ``z(1+z)``).  Exponents are nonnegative integers
    and ``^`` does not chain (write ``(z^1)^8``).  Python's parser reads
    the text once ``*`` is written out and ``^`` written as ``**``; what
    it cannot read, or what nests too deeply for it, raises ValueError.
    So does an exponent or polynomial degree above ``MAX_DEGREE``, and a
    polynomial over ``MAX_BITS`` coefficient bits, so reading is bounded.
    """
    bad = set(text) - _TOKEN_CHARS
    if bad:
        raise ValueError(f"unexpected characters {sorted(bad)!r}")
    if re.search(r"\^(?! *[0-9])", text):
        raise ValueError("^ must be followed by an integer")
    source, previous = [], "("
    for token in re.findall(r"[0-9]+|\S", text):
        if previous[-1] in "0123456789z)" and token[0] in "0123456789z(":
            source.append("*")  # implied multiplication
        source.append("**" if token == "^" else str(int(token)) if token.isdigit() else token)
        previous = token
    try:
        return _evaluate(ast.parse(" ".join(source), mode="eval").body).normalized()
    except SyntaxError as exc:
        raise ValueError(f"not a rational function of z: {exc.msg}") from None
    except RecursionError:
        raise ValueError("expression nested too deeply") from None


def _evaluate(node) -> RationalGF:
    """The form a parsed expression denotes: integers, z (the only name
    the characters allow), unary + and -, + - * /, and ** to an integer."""
    if isinstance(node, ast.Constant):
        return RationalGF((node.value,))
    if isinstance(node, ast.Name):
        return RationalGF((0, 1))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _evaluate(node.operand)
        return _negate(value) if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        if not isinstance(node.right, ast.Constant):
            raise ValueError("^ does not chain: bracket the power first")
        if node.right.value > MAX_DEGREE:
            raise ValueError(f"exponent {node.right.value} is above {MAX_DEGREE}")
        return _power(_evaluate(node.left), node.right.value)
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATIONS:
        return _bounded(_OPERATIONS[type(node.op)](_evaluate(node.left), _evaluate(node.right)))
    raise ValueError(f"not a rational function of z: unexpected {type(node).__name__}")


def _power(base: RationalGF, exponent: int) -> RationalGF:
    """``base ** exponent`` by squaring, refused as multiplying the base in
    one factor at a time would be: on degree at the first power past
    ``MAX_DEGREE``, unless a smaller power has too many bits."""
    degree = max(len(base.numerator), len(base.denominator)) - 1
    if degree > 0 and exponent > MAX_DEGREE // degree:
        return _mul(_power(base, MAX_DEGREE // degree), base)  # _pmul refuses it
    value = RationalGF((1,))
    while exponent:
        if exponent & 1:
            value = _bounded(_mul(value, base))
        exponent >>= 1
        base = _bounded(_mul(base, base)) if exponent else base
    return value


def _bounded(value: RationalGF) -> RationalGF:
    for poly in (value.numerator, value.denominator):
        if sum(c.bit_length() for c in poly) > MAX_BITS:
            raise ValueError(f"a polynomial takes more than {MAX_BITS} coefficient bits")
    return value


def _pmul(a, b):
    if len(a) + len(b) - 2 > MAX_DEGREE:  # refused before the work is done
        raise ValueError(f"a polynomial would have degree above {MAX_DEGREE}")
    reverse = b[::-1]  # coefficient k sums a[i] * b[k - i], one C-level pass each
    return tuple(sum(map(mul, a[max(k - len(b) + 1, 0) :], reverse[max(len(b) - 1 - k, 0) :]))
                 for k in range(len(a) + len(b) - 1 or 1))


def _add(a: RationalGF, b: RationalGF) -> RationalGF:
    left, right = _pmul(a.numerator, b.denominator), _pmul(b.numerator, a.denominator)
    num = tuple(x + y for x, y in zip_longest(left, right, fillvalue=0))
    return RationalGF(num, _pmul(a.denominator, b.denominator))


def _negate(a: RationalGF) -> RationalGF:
    return RationalGF(tuple(-c for c in a.numerator), a.denominator)


def _mul(a: RationalGF, b: RationalGF) -> RationalGF:
    return RationalGF(_pmul(a.numerator, b.numerator), _pmul(a.denominator, b.denominator))


def _div(a: RationalGF, b: RationalGF) -> RationalGF:
    if not b.numerator:
        raise ZeroDivisionError("division by the zero function")
    num = _pmul(a.numerator, b.denominator)
    den = _pmul(a.denominator, b.numerator)
    if not den or den[0] == 0:
        raise ZeroDivisionError("denominator would vanish at z = 0")
    return RationalGF(num, den)


_OPERATIONS = {ast.Add: _add, ast.Sub: lambda a, b: _add(a, _negate(b)), ast.Mult: _mul, ast.Div: _div}
