"""Exact multivariate polynomial arithmetic in named chart coordinates.

Coefficients are exact rationals (``int`` when integral, else
``fractions.Fraction``) and monomials are exponent tuples, so equality-to-zero
is decidable: a polynomial is zero iff its term map is empty. Every verdict
downstream of this module is therefore a certificate, not a numeric
approximation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping, Union

__all__ = [
    "Chart",
    "Poly",
    "PolyError",
    "GrowthLimitError",
    "ParseError",
    "set_degree_limit",
    "get_degree_limit",
]


class PolyError(Exception):
    """Base error for the polynomial kernel."""


class GrowthLimitError(PolyError):
    """Raised when a result would exceed the configured degree bound."""


class ParseError(PolyError):
    """Raised on malformed polynomial text; carries a position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# Total-degree guardrail.  Exceeding it raises, never truncates.
_DEGREE_LIMIT = 64


def set_degree_limit(limit: int) -> None:
    global _DEGREE_LIMIT
    if limit < 1:
        raise ValueError("degree limit must be positive")
    _DEGREE_LIMIT = limit


def get_degree_limit() -> int:
    return _DEGREE_LIMIT


@dataclass(frozen=True)
class Chart:
    """A coordinate chart: an ordered tuple of distinct coordinate names.

    ``dim == 0`` is legal (a point); polynomials then degenerate to rational
    scalars, which is what Lie bialgebras over a point need.
    """

    coords: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.coords)) != len(self.coords):
            raise ValueError(f"coordinate names must be distinct: {self.coords}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise KeyError(f"unknown coordinate {name!r} in chart {self.coords}") from None

    def __repr__(self) -> str:
        return f"Chart({', '.join(self.coords) or 'point'})"


Scalar = Union[int, Fraction]


def _rational(c: Scalar) -> Scalar:
    """Canonical coefficient: ``int`` when integral, else ``Fraction``."""
    if c.__class__ is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _make(chart: Chart, terms: dict[tuple[int, ...], Scalar]) -> "Poly":
    """Wrap a term map that is already canonical, without checking it.

    Only for results of operations on valid Polys: exponents of the right
    length, nonnegative and within the degree bound, no zero coefficients,
    integral coefficients stored as ``int``.
    """
    p = object.__new__(Poly)
    p.chart = chart
    p.terms = terms
    p._hash = None
    return p


class Poly:
    """Canonical multivariate polynomial over Q on a chart.

    Invariants: every exponent tuple has length ``chart.dim``, nonnegative
    entries and total degree within the degree limit; no stored zero
    coefficients; each coefficient is an exact rational, stored as ``int``
    when integral and as ``Fraction`` otherwise (the two compare and hash
    equal).  Two Polys are equal iff charts and term maps are equal.
    Instances are immutable; all operations return new values.

    Input is validated once, here and in the named constructors and the
    parser.  Results of ``+ - * neg diff **`` are built from valid operands
    and bypass that validation; the degree bound is enforced by ``*`` on
    the product's total degree.
    """

    __slots__ = ("chart", "terms", "_hash")

    def __init__(self, chart: Chart, terms: Mapping[tuple[int, ...], Scalar]) -> None:
        clean: dict[tuple[int, ...], Scalar] = {}
        for exp, c in terms.items():
            if len(exp) != chart.dim:
                raise PolyError(f"exponent tuple {exp} has wrong length for {chart}")
            if any(e < 0 for e in exp):
                raise PolyError(f"negative exponent in {exp}")
            if sum(exp) > _DEGREE_LIMIT:
                raise GrowthLimitError(
                    f"monomial degree {sum(exp)} exceeds limit {_DEGREE_LIMIT}"
                )
            c = _rational(Fraction(c))
            if c != 0:
                clean[tuple(exp)] = c
        self.chart = chart
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Poly":
        return _make(chart, {})

    @staticmethod
    def const(chart: Chart, c: Scalar) -> "Poly":
        # the zero exponent is always valid; only the value needs checking
        c = _rational(Fraction(c))
        return _make(chart, {(0,) * chart.dim: c} if c else {})

    @staticmethod
    def var(chart: Chart, name: str) -> "Poly":
        return Poly.coord(chart, chart.index(name))

    @staticmethod
    def coord(chart: Chart, i: int) -> "Poly":
        if not 0 <= i < chart.dim:
            raise IndexError(f"coordinate index {i} out of range for {chart}")
        exp = tuple(1 if j == i else 0 for j in range(chart.dim))
        return Poly(chart, {exp: 1})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.chart is not other.chart and self.chart != other.chart:
            raise PolyError(f"chart mismatch: {self.chart} vs {other.chart}")

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        other = self._coerce(other)
        self._check(other)
        terms = dict(self.terms)
        get = terms.get
        for exp, c in other.terms.items():
            s = get(exp)
            if s is None:
                terms[exp] = c
                continue
            s += c
            if s:
                terms[exp] = _rational(s)
            else:
                del terms[exp]
        return _make(self.chart, terms)

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self + (-self._coerce(other))

    def __neg__(self) -> "Poly":
        return _make(self.chart, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly.zero(self.chart)
            other = _rational(other)
            return _make(self.chart,
                         {e: _rational(c * other) for e, c in self.terms.items()})
        self._check(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return Poly.zero(self.chart)
        limit = _DEGREE_LIMIT
        if max(map(sum, a)) + max(map(sum, b)) > limit:
            # Over Q the product has exactly this total degree.  Report the
            # first monomial past the bound, in product order.
            d = next(s + t for s in map(sum, a) for t in map(sum, b) if s + t > limit)
            raise GrowthLimitError(f"monomial degree {d} exceeds limit {limit}")
        out = {}
        get = out.get
        bitems = b.items()
        for e1, c1 in a.items():
            for e2, c2 in bitems:
                e = tuple(map(add, e1, e2))
                prev = get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return _make(self.chart, {e: _rational(c) for e, c in out.items() if c})

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other: "Poly | Scalar") -> "Poly":
        return self._coerce(other) - self

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise PolyError("negative powers are not polynomials")
        out = Poly.const(self.chart, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def _coerce(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly.const(self.chart, other)

    # -- calculus ----------------------------------------------------------

    def diff(self, i: int) -> "Poly":
        """Formal partial derivative with respect to coordinate ``i``."""
        if not 0 <= i < self.chart.dim:
            raise IndexError(f"coordinate index {i} out of range for {self.chart}")
        # exp -> exp - e_i is injective on the terms it keeps, so no two
        # terms collide and no coefficient cancels
        out: dict[tuple[int, ...], Scalar] = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k:
                out[exp[:i] + (k - 1,) + exp[i + 1:]] = _rational(c * k)
        return _make(self.chart, out)

    # -- predicates & misc -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (errors if non-constant)."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (exp, c), = self.terms.items()
            if all(e == 0 for e in exp):
                return Fraction(c)
        raise PolyError(f"not a constant: {self}")

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.chart, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.chart, frozenset(self.terms.items())))
            self._hash = h
        return h

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Poly({render(self)})"


def _monomial_str(chart: Chart, exp: tuple[int, ...]) -> str:
    parts = []
    for name, e in zip(chart.coords, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render(p: Poly) -> str:
    """Deterministic textual form: graded-lex monomial order, leading first."""
    if not p.terms:
        return "0"
    keys = sorted(p.terms, key=lambda e: (sum(e), e), reverse=True)
    out = []
    for exp in keys:
        c = p.terms[exp]
        mono = _monomial_str(p.chart, exp)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


# -- parsing ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    Grammar: integers, rationals ``a/b``, chart variables, ``+ - * ^`` and
    parentheses; whitespace is insignificant.  ``-`` is both unary and binary.
    """

    def __init__(self, chart: Chart, text: str) -> None:
        self.chart = chart
        self.tokens = _tokenize(text)
        self.i = 0
        self.textlen = len(text)

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.textlen)
        self.i += 1
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return p

    def expr(self) -> Poly:
        tok = self.peek()
        if tok and tok[1] == "-":
            self.next()
            acc = -self.term()
        elif tok and tok[1] == "+":
            self.next()
            acc = self.term()
        else:
            acc = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.next()
                rhs = self.term()
                acc = acc + rhs if tok[1] == "+" else acc - rhs
            else:
                return acc

    def term(self) -> Poly:
        acc = self.power()
        while True:
            tok = self.peek()
            if tok and tok[1] == "*":
                self.next()
                acc = acc * self.power()
            else:
                return acc

    def power(self) -> Poly:
        base = self.atom()
        tok = self.peek()
        if tok and tok[1] == "^":
            self.next()
            etok = self.next()
            if etok[0] != "num" or "/" in etok[1]:
                raise ParseError("exponent must be a nonnegative integer", etok[2])
            return base ** int(etok[1])
        return base

    def atom(self) -> Poly:
        tok = self.next()
        kind, text, pos = tok
        if kind == "num":
            try:
                return Poly.const(self.chart, Fraction(text))
            except ZeroDivisionError:
                raise ParseError("zero denominator", pos) from None
        if kind == "name":
            try:
                return Poly.var(self.chart, text)
            except KeyError:
                raise ParseError(f"unknown variable {text!r}", pos) from None
        if text == "(":
            p = self.expr()
            closing = self.next()
            if closing[1] != ")":
                raise ParseError("expected ')'", closing[2])
            return p
        if text == "-":
            return -self.atom()
        raise ParseError(f"unexpected token {text!r}", pos)


def parse_poly(chart: Chart, text: str) -> Poly:
    """Parse and canonicalize a polynomial expression on the chart."""
    return _Parser(chart, text).parse()

