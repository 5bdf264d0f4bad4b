"""Exact multivariate polynomial arithmetic in named chart coordinates.

Coefficients are exact rationals and equality-to-zero is decidable: a
polynomial is zero iff it has no terms.  Every verdict downstream of this
module is therefore a certificate, not a numeric approximation.

A polynomial is stored as integer numerators over one shared denominator,
keyed by packed exponents (Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  On a chart
of dimension ``n`` the exponent of coordinate ``i`` occupies the ``SLOT_BITS``
bits at ``SLOT_BITS * (n - 1 - i)`` and the total degree the bits above
``SLOT_BITS * n``.  A monomial product is then one integer addition, and
descending key order is graded-lex order.  A slot holds at most
``MAX_DEGREE_LIMIT``, so the degree limit cannot be set above it; since a
product is checked against the limit before it is formed, no slot ever
carries into its neighbour.

Every Poly also carries ``_deg``, an upper bound on its total degree, so
that the degree check costs one integer per operand.  The bound is exact
from the constructor, ``zero``, ``const`` and ``coord``; negation, scaling
by a number and ``_rechart`` keep it, ``diff`` lowers it by one (not below
0), and a sum takes the largest bound it has added (deg x + deg y for a
product).  It may exceed the degree when top terms cancel.  Equality,
hashing, ``terms`` and ``total_degree()`` read the terms, never the bound.
Every partial derivative the package forms goes through ``grad``, which
gives all n partials at once: a bound of 0 means n zeros and no ``diff``
call.  No other module reads the bound.

A sum of products (a bracket, a wedge, a matrix product) is built by the
private accumulator ``_Sum``: its terms are added in place into one map of
numerators over one shared denominator, and the finished sum gets one gcd
pass, not one per term.  Each product is checked against the chart and the
degree limit as it is added: while the operands' bounds add up to at most
the limit, no key is read; past it, the exact degrees are read off the top
keys, and they replace the bounds in the sum's own.  ``_Sum.add`` does
only the bookkeeping a product's shape needs, in this order: after the
chart check, a zero operand returns at once; after the degree check, a
product with a one-term factor (a constant or a monomial, the right factor
tried first; a plain sum term counts as a product with the unit monomial)
is one shifted, scaled copy of the other factor: one loop; two multi-term
factors take the double loop.  When both operands' denominators are 1 (the
integer path) no remainder, ``lcm`` or division is taken: the scale is the
sign, times the sum's own denominator only when that is not 1.
``+``, ``-`` and ``Poly * Poly`` are each one step of a fresh accumulator,
so the two loops and the degree check exist once.  A product's degree is
checked before it is formed, so no result ever holds a monomial above the
limit; but a sum whose top degree cancels may pass where forming its terms'
products one by one raised (the brackets in ``forms`` sum first, then
multiply).  ``**`` and each ``*`` of parsed text also bound the bit length of
their coefficients by ``_POWER_BITS``: a constant power such as
``(2^65535)^65535``, or a long product of constants, has degree 0, so no
degree check sees it.  Parsed text nests parentheses and unary minus signs at
most ``_NEST_DEPTH`` deep, so deep input is a ``ParseError``, not an exhausted
interpreter stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Union

__all__ = [
    "Chart",
    "Poly",
    "PolyError",
    "GrowthLimitError",
    "ParseError",
    "set_degree_limit",
    "get_degree_limit",
    "MAX_DEGREE_LIMIT",
]


class PolyError(Exception):
    """Base error for the polynomial kernel."""


class GrowthLimitError(PolyError):
    """Raised when a result would exceed the configured degree limit."""


class ParseError(PolyError):
    """Raised on malformed polynomial text; carries a position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


SLOT_BITS = 16
_SLOT_MASK = (1 << SLOT_BITS) - 1
MAX_DEGREE_LIMIT = _SLOT_MASK

# Total-degree guardrail.  Exceeding it raises, never truncates.
_DEGREE_LIMIT = 64
# Coefficient guardrail of ``**`` and of parsed products, in bits: a constant
# power or product has degree 0.
_POWER_BITS = 1 << 20
# Nesting guardrail of parsed text: parentheses and unary minus signs within
# one another, each a level of the parser's recursion.
_NEST_DEPTH = 100


def _check_bits(*polys: "Poly") -> None:
    """Raise ``GrowthLimitError`` when a numerator or denominator of the
    polys has more than ``_POWER_BITS`` bits."""
    bits = max(c.bit_length() for p in polys for c in (p._den, *p._num.values()))
    if bits > _POWER_BITS:
        raise GrowthLimitError(f"coefficient of {bits} bits exceeds limit {_POWER_BITS}")


def set_degree_limit(limit: int) -> None:
    """Bound the total degree of every polynomial, from 1 to
    ``MAX_DEGREE_LIMIT`` (the largest exponent a packed slot holds)."""
    global _DEGREE_LIMIT
    if limit < 1:
        raise ValueError("degree limit must be positive")
    if limit > MAX_DEGREE_LIMIT:
        raise ValueError(f"degree limit must be at most {MAX_DEGREE_LIMIT}")
    _DEGREE_LIMIT = limit


def get_degree_limit() -> int:
    return _DEGREE_LIMIT


@dataclass(frozen=True)
class Chart:
    """A coordinate chart: an ordered tuple of distinct coordinate names.

    ``dim == 0`` is legal (a point); polynomials then degenerate to rational
    scalars, which is what Lie bialgebras over a point need.  ``dim`` is
    stored when the chart is built; it is not a constructor argument and
    takes no part in equality, hashing or ``repr``.
    """

    coords: tuple[str, ...]
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.coords)) != len(self.coords):
            raise ValueError(f"coordinate names must be distinct: {self.coords}")
        object.__setattr__(self, "dim", len(self.coords))

    def index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise KeyError(f"unknown coordinate {name!r} in chart {self.coords}") from None

    def __repr__(self) -> str:
        return f"Chart({', '.join(self.coords) or 'point'})"


Scalar = Union[int, Fraction]


def _unpack(key: int, dim: int) -> tuple[int, ...]:
    return tuple((key >> SLOT_BITS * (dim - 1 - i)) & _SLOT_MASK for i in range(dim))


def _make(chart: Chart, num: dict[int, int], den: int, deg: int) -> "Poly":
    """Wrap a representation that is already canonical, without checking it.

    Only for results of operations on valid Polys: packed keys within the
    degree limit, no zero numerators, ``den > 0`` and coprime to the
    numerators (so ``den == 1`` when ``num`` is empty), and ``deg`` at least
    the total degree of every key.
    """
    p = object.__new__(Poly)
    p.chart = chart
    p._num = num
    p._den = den
    p._deg = deg
    return p


def _reduced(chart: Chart, num: dict[int, int], den: int, deg: int) -> "Poly":
    """``_make`` after dividing out the common factor of ``den`` and the
    numerators.  With no numerators that factor is ``den`` itself, so zero
    always ends with ``den == 1``."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    return _make(chart, num, den, deg)


class Poly:
    """Canonical multivariate polynomial over Q on a chart.

    Representation: ``_num`` maps packed exponents (see the module
    docstring) to nonzero integer numerators and ``_den`` is their one
    positive denominator, coprime to them all and 1 for zero.  Two Polys are
    equal iff charts, numerators and denominators are equal.  Instances are
    immutable; all operations return new values.

    ``_deg`` is an upper bound on the total degree, passed on by every
    operation (see the module docstring); a bound of 0 means a constant.

    ``terms`` is a read-only view ``{exponent tuple: coefficient}``, with an
    ``int`` coefficient when it is integral and a ``Fraction`` otherwise,
    built on first use; the arithmetic never builds it.

    Input is validated once, here and in the named constructors and the
    parser.  Results of ``+ - * neg diff **`` are built from valid operands
    and bypass that validation; the degree limit is enforced on each
    product's total degree by the sum accumulator ``_Sum``, which ``*``
    goes through.
    """

    # _deg bounds the total degree from above; _hash and _terms are caches,
    # unset until first asked for
    __slots__ = ("chart", "_num", "_den", "_deg", "_hash", "_terms")

    def __init__(self, chart: Chart, terms: Mapping[tuple[int, ...], Scalar]) -> None:
        dim = chart.dim
        deg_shift = SLOT_BITS * dim
        coeffs: dict[int, Scalar] = {}
        den, top = 1, 0
        for exp, c in terms.items():
            if len(exp) != dim:
                raise PolyError(f"exponent tuple {exp} has wrong length for {chart}")
            key = 0
            for e in exp:
                if e < 0:
                    raise PolyError(f"negative exponent in {exp}")
                key = key << SLOT_BITS | e
            deg = sum(exp)
            if deg > _DEGREE_LIMIT:
                raise GrowthLimitError(
                    f"monomial degree {deg} exceeds limit {_DEGREE_LIMIT}"
                )
            if c.__class__ is not int:
                if c.__class__ is not Fraction:
                    c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
                else:
                    den = lcm(den, c.denominator)
            if c:
                coeffs[deg << deg_shift | key] = c
                top = max(top, deg)
        if den != 1:
            # every prime power of den divides some denominator exactly, and
            # that coefficient's scaled numerator is prime to it: no gcd pass
            coeffs = {k: c * den if c.__class__ is int
                      else c.numerator * (den // c.denominator)
                      for k, c in coeffs.items()}
        self.chart = chart
        self._num = coeffs
        self._den = den
        self._deg = top

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Poly":
        return _make(chart, {}, 1, 0)

    @staticmethod
    def const(chart: Chart, c: Scalar) -> "Poly":
        # the zero exponent packs to key 0; only the value needs checking
        if c.__class__ is not int:
            c = Fraction(c)
            if c:
                return _make(chart, {0: c.numerator}, c.denominator, 0)
        return _make(chart, {0: c} if c else {}, 1, 0)

    @staticmethod
    def var(chart: Chart, name: str) -> "Poly":
        return Poly.coord(chart, chart.index(name))

    @staticmethod
    def coord(chart: Chart, i: int) -> "Poly":
        if not 0 <= i < chart.dim:
            raise IndexError(f"coordinate index {i} out of range for {chart}")
        n = chart.dim
        return _make(chart, {(1 << SLOT_BITS * n) | (1 << SLOT_BITS * (n - 1 - i)): 1}, 1, 1)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        return self._plus(other, 1)

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self._plus(other, -1)

    def _plus(self, other: "Poly | Scalar", sign: int) -> "Poly":
        if other.__class__ is not Poly:
            other = Poly.const(self.chart, other)
        acc = _Sum(self.chart)
        acc.num, acc.den, acc.deg = dict(self._num), self._den, self._deg
        acc.add(other, None, sign)
        return acc.poly()

    def __neg__(self) -> "Poly":
        return _make(self.chart, {k: -c for k, c in self._num.items()}, self._den,
                     self._deg)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        # Poly x Poly is the common case; test it before the scalar isinstance
        if other.__class__ is not Poly and isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly.zero(self.chart)
            # the part of the scalar's numerator shared with _den cancels at
            # once; only its denominator needs a gcd pass
            a, b = other.numerator, other.denominator
            g = gcd(a, self._den)
            if g != 1:
                a //= g
            num = {k: c * a for k, c in self._num.items()}
            den = self._den // g
            if b == 1:
                return _make(self.chart, num, den, self._deg)
            return _reduced(self.chart, num, den * b, self._deg)
        acc = _Sum(self.chart)
        acc.add(self, other)
        return acc.poly()

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other: "Poly | Scalar") -> "Poly":
        return -self + other

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
            _check_bits(out, base)
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, i: int) -> "Poly":
        """Formal partial derivative with respect to coordinate ``i``."""
        n = self.chart.dim
        if not 0 <= i < n:
            raise IndexError(f"coordinate index {i} out of range for {self.chart}")
        # lowering slot i and the total degree by one is injective on the
        # terms it keeps, so no two terms collide and no numerator cancels
        shift = SLOT_BITS * (n - 1 - i)
        step = (1 << shift) | (1 << SLOT_BITS * n)
        out: dict[int, int] = {}
        for k, c in self._num.items():
            e = (k >> shift) & _SLOT_MASK
            if e:
                out[k - step] = c * e
        deg = self._deg - 1 if self._deg else 0
        if self._den == 1:
            return _make(self.chart, out, 1, deg)
        return _reduced(self.chart, out, self._den, deg)

    def grad(self) -> list["Poly"]:
        """The partials ``[d_0 p, ..., d_(n-1) p]`` in chart order.  Every
        partial derivative the package forms goes through here: a constant
        (degree bound 0) gets n zeros with no ``diff`` call, any other Poly
        one ``diff`` per coordinate."""
        n = self.chart.dim
        return [self.diff(i) for i in range(n)] if self._deg else [Poly.zero(self.chart)] * n

    # -- predicates & misc -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def terms(self) -> Mapping[tuple[int, ...], Scalar]:
        """Read-only ``{exponent tuple: int | Fraction}`` view, built once."""
        try:
            return self._terms
        except AttributeError:
            dim, den = self.chart.dim, self._den
            self._terms = MappingProxyType({
                _unpack(k, dim): c // den if c % den == 0 else Fraction(c, den)
                for k, c in self._num.items()})
            return self._terms

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (errors if non-constant)."""
        num = self._num
        if not num:
            return Fraction(0)
        if len(num) == 1 and 0 in num:
            return Fraction(num[0], self._den)
        raise PolyError(f"not a constant: {self}")

    def total_degree(self) -> int:
        return max(self._num, default=0) >> SLOT_BITS * self.chart.dim

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.chart, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.chart == other.chart and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.chart, self._den, frozenset(self._num.items())))
            return self._hash

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Poly({render(self)})"


def _check_chart(chart: Chart, p: Poly) -> None:
    if chart is not p.chart and chart != p.chart:
        raise PolyError(f"chart mismatch: {chart} vs {p.chart}")


def _product_degree(chart: Chart, a: dict[int, int], b: dict[int, int]) -> int:
    """The exact total degree of the product of the terms ``a`` and ``b``,
    read off their top keys.  Over the limit, raise ``GrowthLimitError``
    naming the first monomial past it in product order (``a`` outer)."""
    shift, limit = SLOT_BITS * chart.dim, _DEGREE_LIMIT
    deg = (max(a) >> shift) + (max(b) >> shift)
    if deg > limit:
        # Over Q the product has exactly this total degree.
        deg = next(s + t for s in (k >> shift for k in a)
                   for t in (k >> shift for k in b) if s + t > limit)
        raise GrowthLimitError(f"monomial degree {deg} exceeds limit {limit}")
    return deg


class _Sum:
    """A sum of terms ``sign * x * y`` (``sign * x`` when ``y`` is None),
    built in place over one shared denominator (see the module docstring).
    ``deg`` is the largest degree bound added, deg x + deg y per product and
    deg x per plain term, or the exact degree of a product whose bounds
    exceed the limit; ``poly()`` gives it to the result (0 when empty).

    ``add`` dispatches on the operands' shape, in the module docstring's
    order: a zero operand adds nothing, a one-term factor (or a plain term)
    makes one loop over the other factor, and two multi-term factors the
    double loop.  Integer operands (both denominators 1) take no ``%``,
    ``lcm`` or ``//``; only a sum whose own denominator is not 1 scales
    them by it."""

    __slots__ = ("chart", "num", "den", "deg")

    def __init__(self, chart: Chart) -> None:
        self.chart, self.num, self.den, self.deg = chart, {}, 1, 0

    def add(self, x: Poly, y: Poly | None = None, sign: int = 1) -> None:
        chart = self.chart
        if x.chart is not chart:
            _check_chart(chart, x)
        a = x._num
        if y is None:  # x times the unit monomial
            if not a:
                return
            k1, c1, rest, d, deg = 0, 1, a, x._den, x._deg
        else:
            if y.chart is not chart:
                _check_chart(chart, y)
            b = y._num
            if not a or not b:
                return
            deg = x._deg + y._deg
            if deg > _DEGREE_LIMIT:  # the bounds may overstate: read the keys
                deg = _product_degree(chart, a, b)
            d = x._den * y._den
            if len(b) == 1:
                ((k1, c1),) = b.items()
                rest = a
            elif len(a) == 1:
                ((k1, c1),) = a.items()
                rest = b
            else:
                rest = None
        if deg > self.deg:
            self.deg = deg
        den = self.den
        if d == 1:  # integer operands: no gcd, no division
            m = sign if den == 1 else den * sign
        else:
            if den % d:  # grow the shared denominator to a multiple of d
                new = lcm(den, d)
                f = new // den
                self.num = {k: c * f for k, c in self.num.items()}
                self.den = den = new
            m = den // d * sign
        num = self.num
        get = num.get
        if rest is not None:  # a shifted, scaled copy of the other factor
            c1 *= m
            for k2, c2 in rest.items():
                k = k1 + k2
                num[k] = get(k, 0) + c2 * c1
            return
        bitems = b.items()
        for k1, c1 in a.items():
            c1 *= m
            for k2, c2 in bitems:
                k = k1 + k2
                num[k] = get(k, 0) + c1 * c2

    def poly(self) -> Poly:
        """The finished sum; the accumulator is not used after it."""
        num = self.num
        if 0 in num.values():
            num = {k: c for k, c in num.items() if c}
        return _reduced(self.chart, num, self.den, self.deg if num else 0)


def _rechart(p: Poly, chart: Chart) -> Poly | None:
    """``p`` moved to a chart whose leading coordinates are ``p.chart``'s,
    or the other way round: coordinates are appended or dropped at the end.
    None when ``p`` depends on a dropped coordinate."""
    old, new = SLOT_BITS * p.chart.dim, SLOT_BITS * chart.dim
    low = (1 << old) - 1
    num = {}
    if new >= old:
        up = new - old
        for k, c in p._num.items():
            num[(k >> old << new) | (k & low) << up] = c
    else:
        down = old - new
        tail = (1 << down) - 1
        for k, c in p._num.items():
            if k & tail:
                return None
            num[(k >> old << new) | (k & low) >> down] = c
    return _make(chart, num, p._den, p._deg)


def _monomial_str(chart: Chart, exp: tuple[int, ...]) -> str:
    parts = []
    for name, e in zip(chart.coords, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _decimal(n: int) -> str:
    """``str(n)`` for a nonnegative int of any size.  Below 2,000 bits (602
    digits) this is ``str`` itself; larger numbers are split in halves, so the
    interpreter's int/str digit limit, which is process-global and at least
    640 digits, never applies."""
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def render(p: Poly) -> str:
    """Deterministic textual form: graded-lex monomial order, leading first."""
    if not p._num:
        return "0"
    dim, den = p.chart.dim, p._den
    out = []
    for k in sorted(p._num, reverse=True):
        c = p._num[k]
        mono = _monomial_str(p.chart, _unpack(k, dim))
        mag = abs(c) if den == 1 else Fraction(abs(c), den)
        if mono and mag == 1:
            body = mono
        else:
            body = _decimal(mag.numerator)
            if mag.denominator != 1:
                body += "/" + _decimal(mag.denominator)
            if mono:
                body += "*" + mono
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
            rest = text[pos:].lstrip()
            if rest:
                bad = len(text) - len(rest)
                raise ParseError(f"unexpected character {text[bad]!r}", bad)
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    Grammar: integers, rationals ``a/b``, chart variables, ``+ - * ^`` and
    parentheses; whitespace is insignificant.  ``-`` is both unary and binary.
    Parentheses and unary minus signs nest at most ``_NEST_DEPTH`` deep.
    """

    def __init__(self, chart: Chart, text: str) -> None:
        self.chart = chart
        self.tokens = _tokenize(text)
        self.i = 0
        self.textlen = len(text)
        self.depth = 0

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
                _check_bits(acc)  # a product of constants has degree 0
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
            return base ** int(self.number(etok))
        return base

    @staticmethod
    def number(tok: tuple[str, str, int]) -> Fraction:
        try:
            return Fraction(tok[1])
        except ZeroDivisionError:
            raise ParseError("zero denominator", tok[2]) from None
        except ValueError:  # past the interpreter's int/str digit limit
            raise ParseError(f"number with {len(tok[1])} characters is too long",
                             tok[2]) from None

    def atom(self) -> Poly:
        tok = self.next()
        kind, text, pos = tok
        if kind == "num":
            return Poly.const(self.chart, self.number(tok))
        if kind == "name":
            try:
                return Poly.var(self.chart, text)
            except KeyError:
                raise ParseError(f"unknown variable {text!r}", pos) from None
        if text == "(":
            p = self.nested(pos, self.expr)
            closing = self.next()
            if closing[1] != ")":
                raise ParseError("expected ')'", closing[2])
            return p
        if text == "-":
            return -self.nested(pos, self.atom)
        raise ParseError(f"unexpected token {text!r}", pos)

    def nested(self, pos: int, parse) -> Poly:
        """``parse()`` one nesting level down from the token at ``pos``."""
        if self.depth == _NEST_DEPTH:
            raise ParseError(f"nesting deeper than {_NEST_DEPTH}", pos)
        self.depth += 1
        p = parse()
        self.depth -= 1
        return p


def parse_poly(chart: Chart, text: str) -> Poly:
    """Parse and canonicalize a polynomial expression on the chart."""
    return _Parser(chart, text).parse()

