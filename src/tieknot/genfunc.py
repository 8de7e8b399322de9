"""Exact integer power series and rational generating functions.

A :class:`Series` is a truncated integer coefficient vector indexed by
size; a :class:`RationalGF` is a pair of integer polynomials N(z)/D(z)
with D(0) != 0.  Expansion runs the linear recurrence induced by the
denominator, so coefficients stay exact however large they grow (the
counts handled here pass two million well before order 15).

:func:`fit_recurrence` goes the other way: given enough terms of a
series it recovers the smallest constant-coefficient linear recurrence
consistent with all of them, hence a rational form, or reports that
none exists within the requested order.  All linear algebra is done
over the rationals with :class:`fractions.Fraction`.

:func:`parse_rational` writes out a form's implied ``*`` and ``^`` as
``**``, and Python's own parser reads the result.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd
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

    Searches recurrence orders r = 0..max_order for constants q_1..q_r
    with a[n] = q_1 a[n-1] + ... + q_r a[n-r] holding for every
    available index past the leading zeros, returning the smallest-order
    match as an integer RationalGF (num/den cleared of fractions), or
    None.  Requires at least 2*max_order + lead terms so a fit is
    genuinely overdetermined.
    """
    coeffs = list(series.coefficients)
    lead = 0
    while lead < len(coeffs) and coeffs[lead] == 0:
        lead += 1
    if lead == len(coeffs):
        return RationalGF((0,), (1,))
    if len(coeffs) < 2 * max_order + lead:
        raise ValueError(
            f"need at least {2 * max_order + lead} coefficients to fit order {max_order}"
        )

    for r in range(0, max_order + 1):
        q = _solve_recurrence(coeffs, lead, r)
        if q is None:
            continue
        # Clear fractions: D(z) = 1 - q1 z - ... - qr z^r, scaled to integers.
        denominators = [f.denominator for f in q] or [1]
        scale = 1
        for d in denominators:
            scale = scale * d // gcd(scale, d)
        den = [scale] + [-(f * scale) for f in q]
        den = [int(c) for c in den]
        num = _pmul(den, coeffs)[: lead + r]
        return RationalGF(tuple(num), tuple(den)).normalized()
    return None


def _solve_recurrence(coeffs, lead, r):
    """Fractions q solving a[n] = sum q_i a[n-i] for all n >= lead + r,
    or None.  r = 0 means the series terminates after the lead block."""
    rows = range(lead + r, len(coeffs))
    if r == 0:
        return [] if all(coeffs[n] == 0 for n in rows) else None
    matrix = [[Fraction(coeffs[n - i]) for i in range(1, r + 1)] for n in rows]
    rhs = [Fraction(coeffs[n]) for n in rows]
    solution = _lstsq_exact(matrix, rhs, r)
    if solution is None:
        return None
    for n in rows:
        if sum(solution[i - 1] * coeffs[n - i] for i in range(1, r + 1)) != coeffs[n]:
            return None
    return solution


def _lstsq_exact(matrix, rhs, unknowns):
    """Solve an overdetermined exact linear system by elimination;
    None when inconsistent, a particular solution (free vars = 0) when
    underdetermined."""
    rows = [row[:] + [b] for row, b in zip(matrix, rhs)]
    pivots = []
    row_at = 0
    for col in range(unknowns):
        pivot = next((i for i in range(row_at, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[row_at], rows[pivot] = rows[pivot], rows[row_at]
        factor = rows[row_at][col]
        rows[row_at] = [v / factor for v in rows[row_at]]
        for i in range(len(rows)):
            if i != row_at and rows[i][col] != 0:
                scale = rows[i][col]
                rows[i] = [v - scale * w for v, w in zip(rows[i], rows[row_at])]
        pivots.append(col)
        row_at += 1
    for i in range(row_at, len(rows)):
        if rows[i][-1] != 0:
            return None
    solution = [Fraction(0)] * unknowns
    for rank, col in enumerate(pivots):
        solution[col] = rows[rank][-1]
    return solution


# ---------------------------------------------------------------------------
# Reading written forms like "z^3/((1+z)(1-2z))" with Python's own parser.

_TOKEN_CHARS = set("0123456789z+-*/^() ")


def parse_rational(text: str) -> RationalGF:
    """Read an integer-coefficient rational function of z.

    Supports + - * / ^ and parentheses, with multiplication implied by
    adjacency (``2z``, ``z(1+z)``).  Exponents are nonnegative integers
    and ``^`` does not chain (write ``(z^1)^8``).  Python's parser reads
    the text once ``*`` is written out and ``^`` written as ``**``; what
    it cannot read, or what nests too deeply for it, raises ValueError.
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
        value, base = RationalGF((1,)), _evaluate(node.left)
        for _ in range(node.right.value):
            value = _mul(value, base)
        return value
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATIONS:
        return _OPERATIONS[type(node.op)](_evaluate(node.left), _evaluate(node.right))
    raise ValueError(f"not a rational function of z: unexpected {type(node).__name__}")


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


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
