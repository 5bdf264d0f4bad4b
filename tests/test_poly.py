"""Polynomial kernel: ring axioms, parsing, differentiation, growth limits."""

from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import decimal
from lnlab.poly import (Chart, GrowthLimitError, ParseError, Poly, PolyError, _rechart,
                        _Sum, get_degree_limit, parse_poly, set_degree_limit)

CH = Chart(("x", "y"))
X = Poly.var(CH, "x")
Y = Poly.var(CH, "y")


def small_polys():
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(exps, coeff, max_size=4).map(lambda d: Poly(CH, d))


class TestRingAxioms:
    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_add_associative_commutative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_mul_associative_distributive(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(small_polys())
    @settings(max_examples=30, deadline=None)
    def test_neutral_elements(self, p):
        assert p + Poly.zero(CH) == p
        assert p * Poly.const(CH, 1) == p
        assert p - p == Poly.zero(CH)

    @given(small_polys(), small_polys())
    @settings(max_examples=30, deadline=None)
    def test_mul_commutative(self, p, q):
        assert p * q == q * p


class TestCalculus:
    @given(small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_leibniz(self, p, q):
        for i in range(CH.dim):
            assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)

    def test_partials(self):
        p = X * X * Y + 3 * Y
        assert p.diff(0) == 2 * X * Y
        assert p.diff(1) == X * X + Poly.const(CH, 3)

    @given(small_polys())
    @settings(max_examples=30, deadline=None)
    def test_mixed_partials_commute(self, p):
        assert p.diff(0).diff(1) == p.diff(1).diff(0)


class TestParser:
    def test_round_trip(self):
        p = parse_poly(CH, "3*x^2*y - 1/2*y + 4")
        assert p == 3 * X * X * Y - Fraction(1, 2) * Y + 4

    def test_unary_minus_and_parens(self):
        assert parse_poly(CH, "-(x - y)^2") == -(X - Y) * (X - Y)

    def test_whitespace_insensitive(self):
        assert parse_poly(CH, " x +2* y ") == parse_poly(CH, "x+2*y")

    def test_unknown_variable(self):
        with pytest.raises(PolyError):
            parse_poly(CH, "x + z")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError):
            parse_poly(CH, "x + * y")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match=r"zero denominator \(at position 4\)"):
            parse_poly(CH, "x + 1/00 * y")

    def test_render_parse_round_trip(self):
        p = 2 * X * Y * Y - Fraction(7, 3) * X + 1
        assert parse_poly(CH, str(p)) == p

    @pytest.mark.parametrize("text, pos", [("x + " + "7" * 5000, 4),
                                           ("x^" + "1" * 5000, 2),
                                           ("y - 1/" + "3" * 5000, 4)],
                             ids=["literal", "exponent", "denominator"])
    def test_number_past_the_digit_limit(self, text, pos):
        with pytest.raises(ParseError, match=rf"too long \(at position {pos}\)"):
            parse_poly(CH, text)

    def test_render_coefficients_of_any_size(self):
        c, d = 3 ** 20000, 7 ** 3000
        p = Fraction(c, d) * X * Y - c * c
        assert str(p) == f"{decimal(c)}/{decimal(d)}*x*y - {decimal(c * c)}"
        assert str(-Fraction(1, d) * Y + 2 ** 1999) == f"-1/{decimal(d)}*y + {2 ** 1999}"

    @pytest.mark.parametrize("text, pos", [("x $", 2), ("x+ $", 3)])
    def test_unexpected_character_after_whitespace(self, text, pos):
        with pytest.raises(ParseError,
                           match=rf"unexpected character '\$' \(at position {pos}\)"):
            parse_poly(CH, text)

    def test_nesting_up_to_the_bound_parses(self):
        assert parse_poly(CH, "(" * 100 + "x" + ")" * 100) == X
        assert parse_poly(CH, "y*" + "-(" * 50 + "x" + ")" * 50) == X * Y
        # a leading sign belongs to the sum; the other 100 nest
        assert parse_poly(CH, "-" * 101 + "x") == -X

    @pytest.mark.parametrize("text, pos", [
        ("(" * 101 + "x" + ")" * 101, 100), ("(" * 5000 + "x" + ")" * 5000, 100),
        ("x + " + "-" * 5000 + "x", 104), ("-" * 5000 + "x", 101),
        ("-(" * 101 + "x" + ")" * 101, 201), ("(--" * 51 + "x" + ")" * 51, 150)],
        ids=["parentheses-101", "parentheses-5000", "minus-5000-in-a-sum", "minus-5000",
             "minus-parentheses-101", "parentheses-minus-51"])
    def test_nesting_past_the_bound(self, text, pos):
        """A ParseError at the first token past 100 levels of parentheses and
        unary minus signs, not an exhausted interpreter stack."""
        with pytest.raises(ParseError, match=rf"^nesting deeper than 100 \(at position {pos}\)$"):
            parse_poly(CH, text)


class TestGrowthLimit:
    def test_degree_cap(self):
        old = get_degree_limit()
        set_degree_limit(4)
        try:
            p = X * X
            with pytest.raises(GrowthLimitError):
                _ = p * p * X
        finally:
            set_degree_limit(old)

    def test_constants_unaffected(self):
        old = get_degree_limit()
        set_degree_limit(1)
        try:
            assert (Poly.const(CH, 5) * Poly.const(CH, 7)).constant_value() == 35
        finally:
            set_degree_limit(old)

    @pytest.mark.parametrize("text", ["(2^65535)^65535", "(1/2^65535)^65535",
                                      "((2^65535)^16)^16", "2^4000000000"])
    def test_constant_power_past_the_bit_cap(self, text):
        """A constant power has degree 0; ``**`` caps its coefficients at 2^20
        bits instead, so these stop after a few squarings."""
        with pytest.raises(GrowthLimitError,
                           match=r"^coefficient of \d+ bits exceeds limit 1048576$"):
            parse_poly(CH, text)

    def test_product_of_constants_past_the_bit_cap(self):
        """Each parsed ``*`` caps its coefficients too: the 17th factor of
        2^65535 passes 2^20 bits."""
        text = "*".join(["2^65535"] * 64)
        with pytest.raises(GrowthLimitError,
                           match=r"^coefficient of 1114096 bits exceeds limit 1048576$"):
            parse_poly(CH, text)
        assert parse_poly(CH, "*".join(["2^65535"] * 16)) == 2 ** (65535 * 16)

    def test_product_of_small_constants_parses(self):
        assert parse_poly(CH, "*".join(map(str, range(1, 21))) + "*x") == factorial(20) * X

    POWERS = [
        ("(2^65535)^15", 2 ** (65535 * 15)), ("2^15000", 2 ** 15000),
        ("(1/3)^40000", Fraction(1, 3 ** 40000)), ("(-1)^65535", -1), ("0^65535", 0),
        ("1^65535", 1), ("(x - y)^2", (X - Y) * (X - Y)), ("2^3*x^3*y^2", 8 * X * X * X * Y * Y),
        ("(x + 1)^64", Poly(CH, {(k, 0): comb(64, k) for k in range(65)}))]

    @pytest.mark.parametrize("text, value", POWERS, ids=[t for t, _ in POWERS])
    def test_powers_below_the_cap(self, text, value):
        assert parse_poly(CH, text) == value


def test_exact_rationals():
    p = Fraction(1, 3) * X + Fraction(1, 6) * X
    assert p == Fraction(1, 2) * X


# -- the kernel against a naive reference ------------------------------------
#
# The reference works on plain {exponent tuple: Fraction} maps and shares no
# code with lnlab.poly.

def ref_clean(d):
    return {e: Fraction(c) for e, c in d.items() if c != 0}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_clean(out)


def ref_neg(a):
    return {e: -c for e, c in a.items()}


def ref_scale(a, s):
    return ref_clean({e: c * s for e, c in a.items()})


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return out


def ref_pow(a, n):
    out = {(0,) * CH.dim: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def assert_canonical(p, reference):
    """Same terms as the reference, no stored zeros, and every integral
    coefficient stored as int (every other one as Fraction)."""
    assert p.terms == reference
    for e, c in p.terms.items():
        assert len(e) == CH.dim and min(e) >= 0
        assert c != 0
        if type(c) is Fraction:
            assert c.denominator != 1
        else:
            assert type(c) is int


MIXED_COEFF = st.one_of(st.integers(-3, 3),
                        st.fractions(min_value=-3, max_value=3, max_denominator=4))
TERM_MAPS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            MIXED_COEFF, max_size=4)
HALF = Fraction(1, 2)


class TestKernelOracle:
    @given(TERM_MAPS, TERM_MAPS, MIXED_COEFF, st.integers(0, 3))
    @example({(1, 0): HALF, (0, 0): 1}, {(1, 0): HALF, (0, 0): -1}, 2, 2)  # 1/2+1/2, 1/2*2
    @example({(1, 0): 1, (0, 1): Fraction(1, 3)},
             {(1, 0): -1, (0, 1): Fraction(-1, 3)}, Fraction(3), 1)  # p + q cancels
    @example({(2, 1): Fraction(3, 2)}, {(0, 0): Fraction(2, 3)}, Fraction(-2, 3), 3)
    @settings(max_examples=150, deadline=None)
    def test_ops_match_reference(self, d1, d2, s, n):
        p, q = Poly(CH, d1), Poly(CH, d2)
        a, b = ref_clean(d1), ref_clean(d2)
        assert_canonical(p, a)
        assert_canonical(p + q, ref_add(a, b))
        assert_canonical(p - q, ref_add(a, ref_neg(b)))
        assert_canonical(p - p, {})
        assert_canonical(-p, ref_neg(a))
        assert_canonical(p * q, ref_mul(a, b))
        assert_canonical(p * s, ref_scale(a, Fraction(s)))
        assert_canonical(s * p, ref_scale(a, Fraction(s)))
        c = ref_clean({(0, 0): s})  # the constant map of the scalar
        assert_canonical(s + p, ref_add(c, a))
        assert_canonical(p + s, ref_add(a, c))
        assert_canonical(p - s, ref_add(a, ref_neg(c)))
        assert_canonical(s - p, ref_add(c, ref_neg(a)))
        assert_canonical(p ** n, ref_pow(a, n))
        for i in range(CH.dim):
            assert_canonical(p.diff(i), ref_diff(a, i))

    def test_constant_value_is_a_fraction(self):
        c = (Poly.const(CH, HALF) * 4).constant_value()
        assert c == 2 and type(c) is Fraction


class TestScalarDispatch:
    """``*`` tries Poly x Poly first; every int and Fraction, including bool
    and int subclasses, still takes the scalar branch."""

    def test_bool_and_int_subclasses_scale(self):
        class Three(int):
            pass

        p = Poly(CH, {(1, 0): HALF, (0, 0): 1})
        assert p * True == p == True * p
        assert (p * False).is_zero and (False * p).is_zero
        assert p * Three(3) == p * 3 == Three(3) * p
        assert_canonical(p * Fraction(2, 3), {(1, 0): Fraction(1, 3), (0, 0): Fraction(2, 3)})

    def test_poly_factor_still_checks_the_chart(self):
        other = Poly(Chart(("u", "v")), {(0, 1): 1})
        with pytest.raises(PolyError):
            Poly(CH, {(1, 0): 1}) * other
        # an accumulator checks every term and factor, as + and * did
        for args in ((other,), (X, other), (other, X), (X, other * 0)):
            acc = _Sum(CH)
            acc.add(X)
            with pytest.raises(PolyError, match="chart mismatch"):
                acc.add(*args)


class TestBoundary:
    def test_rejects_wrong_length_exponent(self):
        with pytest.raises(PolyError):
            Poly(CH, {(1,): 1})
        with pytest.raises(PolyError):
            Poly(CH, {(1, 0, 0): 1})

    def test_rejects_negative_exponent(self):
        with pytest.raises(PolyError):
            Poly(CH, {(1, -1): 1})

    def test_rejects_exponent_over_the_limit(self):
        old = get_degree_limit()
        set_degree_limit(4)
        try:
            assert Poly(CH, {(2, 2): 1}).total_degree() == 4
            with pytest.raises(GrowthLimitError):
                Poly(CH, {(3, 2): 1})
        finally:
            set_degree_limit(old)

    # degrees 1, 3, 4, 2 in term order; times a degree-2 monomial: 3, 5, 6, 4
    UNSORTED = Poly(CH, {(1, 0): 1, (0, 3): Fraction(1, 2), (2, 2): -1, (1, 1): 3})

    @pytest.mark.parametrize("mono", [X * Y, Fraction(2, 3) * X * X, -(Y * Y)])
    def test_monomial_factor_names_the_first_term_past_the_bound(self, mono):
        """One-term factors take the shifted-copy path; the error still names
        the first monomial past the bound in product order (the other
        factor's term order), not the top degree of the product."""
        old = get_degree_limit()
        set_degree_limit(4)
        try:
            for p, q in ((mono, self.UNSORTED), (self.UNSORTED, mono)):
                with pytest.raises(GrowthLimitError) as by_mul:
                    _ = p * q
                acc = _Sum(CH)
                acc.add(X)
                with pytest.raises(GrowthLimitError) as by_sum:
                    acc.add(p, q, -1)
                assert str(by_mul.value) == str(by_sum.value) == (
                    "monomial degree 5 exceeds limit 4")
                assert acc.poly() == X  # the failed product left no trace
        finally:
            set_degree_limit(old)

    @given(small_polys(), small_polys(), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_mul_raises_iff_degree_sum_exceeds_limit(self, p, q, limit):
        over = not p.is_zero and not q.is_zero and p.total_degree() + q.total_degree() > limit
        old = get_degree_limit()
        set_degree_limit(limit)
        try:
            # the same product added to an accumulator that already holds terms
            acc = _Sum(CH)
            acc.add(X)
            acc.add(Y, None, -1)
            if over:
                with pytest.raises(GrowthLimitError) as by_mul:
                    _ = p * q
                with pytest.raises(GrowthLimitError) as by_sum:
                    acc.add(p, q, -1)
                assert str(by_sum.value) == str(by_mul.value)
            else:
                assert (p * q).total_degree() <= limit
                acc.add(p, q, -1)
                assert acc.poly() == X - Y - p * q
        finally:
            set_degree_limit(old)


# -- packed exponents over one shared denominator ----------------------------

CH3 = Chart(("x", "y", "z"))
FRACTIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=12)
EXPS3 = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def ref_render(chart, d):
    """Graded-lex order, leading term first, written without lnlab.poly."""
    out = []
    for e in sorted(d, key=lambda e: (sum(e), e), reverse=True):
        c = d[e]
        mono = "*".join(n if k == 1 else f"{n}^{k}"
                        for n, k in zip(chart.coords, e) if k)
        mag = abs(c)
        mag_s = str(mag.numerator) if mag.denominator == 1 else str(mag)
        if mono:
            body = mono if mag == 1 else f"{mag_s}*{mono}"
        else:
            body = mag_s
        if out:
            out.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            out.append(f"-{body}" if c < 0 else body)
    return " ".join(out) or "0"


def assert_same(p, reference):
    """assert_canonical, and equal with an equal hash to the Poly built from
    the reference: equality sees the stored form, not only the terms view."""
    assert_canonical(p, reference)
    q = Poly(p.chart, reference)
    assert p == q and hash(p) == hash(q)


class TestSharedDenominator:
    @given(TERM_MAPS, st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                      st.integers(-3, 3), max_size=4))
    @example({(1, 0): HALF}, {(1, 0): 1})  # x/2 + x/2
    @example({(1, 0): Fraction(1, 6), (0, 1): Fraction(1, 4)},
             {(1, 0): 1, (0, 1): 1})  # x/6 + 5x/6, y/4 + 3y/4
    @settings(max_examples=80, deadline=None)
    def test_mixed_denominators_summing_to_integers(self, d, target):
        """q is built by the reference so that p + q has integer coefficients."""
        a = ref_clean(d)
        q_terms = {e: Fraction(target.get(e, 0)) - a.get(e, Fraction(0))
                   for e in set(a) | set(target)}
        total = Poly(CH, d) + Poly(CH, q_terms)
        assert_same(total, ref_clean(target))
        assert all(type(c) is int for c in total.terms.values())

    def test_shared_denominator_reduces(self):
        p = Poly(CH, {(1, 0): Fraction(1, 6)}) + Poly(CH, {(1, 0): Fraction(1, 3)})
        assert_same(p, {(1, 0): HALF})  # x/6 + x/3
        assert p == parse_poly(CH, "1/2*x")

    @given(st.integers(1, 4), st.integers(0, 2), st.integers(-9, 9).filter(bool))
    @example(2, 0, 1)  # x^2/2 -> x
    @settings(max_examples=40, deadline=None)
    def test_diff_clears_a_denominator(self, k, j, a):
        p = Poly(CH, {(k, j): Fraction(a, k), (0, j): Fraction(1, 7)})
        assert_same(p.diff(0), {(k - 1, j): Fraction(a)})

    @given(TERM_MAPS, FRACTIONAL, st.integers(-9, -1))
    @example({(1, 0): Fraction(2, 3), (0, 1): Fraction(4, 9)}, Fraction(3, 2), -3)
    @settings(max_examples=80, deadline=None)
    def test_scalar_by_fraction_and_negative_int(self, d, s, n):
        p, a = Poly(CH, d), ref_clean(d)
        assert_same(p * s, ref_scale(a, s))
        assert_same(s * p, ref_scale(a, s))
        assert_same(p * n, ref_scale(a, Fraction(n)))
        assert_same(p * s * n, ref_scale(a, s * n))

    @given(st.dictionaries(EXPS3, FRACTIONAL, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_one_value_three_ways(self, d):
        built = Poly(CH3, d)
        text = " + ".join(f"({c.numerator}/{c.denominator})*x^{e[0]}*y^{e[1]}*z^{e[2]}"
                          for e, c in d.items()) or "0"
        parsed = parse_poly(CH3, text)
        x, y, z = (Poly.var(CH3, n) for n in "xyz")
        summed = Poly.zero(CH3)
        for (i, j, k), c in d.items():
            summed = summed + c * x ** i * y ** j * z ** k
        assert built == parsed == summed
        assert hash(built) == hash(parsed) == hash(summed)
        assert built.terms == parsed.terms == summed.terms == ref_clean(d)

    @given(st.dictionaries(EXPS3, MIXED_COEFF, max_size=8))
    @example({(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1, (0, 2, 0): 1,
              (0, 1, 1): 1, (0, 0, 2): 1, (0, 0, 1): 2})
    @settings(max_examples=80, deadline=None)
    def test_render_order_on_degree_ties(self, d):
        assert str(Poly(CH3, d)) == ref_render(CH3, ref_clean(d))

    def test_render_tie_order_literal(self):
        p = parse_poly(CH3, "z^2 + y*z + x*z + y^2 + x*y + x^2 - 1/2*z")
        assert str(p) == "x^2 + x*y + x*z + y^2 + y*z + z^2 - 1/2*z"

    @given(TERM_MAPS)
    @settings(max_examples=40, deadline=None)
    def test_terms_view_is_read_only(self, d):
        p = Poly(CH, d)
        with pytest.raises(TypeError):
            p.terms[(5, 5)] = 1
        with pytest.raises(AttributeError):
            p.terms = {}
        for c in p.terms.values():
            assert (type(c) is int) == (Fraction(c).denominator == 1)
        assert p.terms == ref_clean(d)


class TestSlotWidth:
    TOP = 2 ** 16 - 1

    def test_limit_capped_at_slot_width(self):
        old = get_degree_limit()
        try:
            set_degree_limit(self.TOP)
            assert get_degree_limit() == self.TOP
            with pytest.raises(ValueError):
                set_degree_limit(self.TOP + 1)
            assert get_degree_limit() == self.TOP
        finally:
            set_degree_limit(old)

    def test_growth_limit_at_the_top_without_carry(self):
        old = get_degree_limit()
        set_degree_limit(self.TOP)
        try:
            xt = Poly(CH, {(self.TOP, 0): 1})
            yt = Poly(CH, {(0, self.TOP): 1})
            assert (Poly(CH, {(40000, 0): 1}) * Poly(CH, {(25535, 0): 1})).terms == {
                (self.TOP, 0): 1}
            assert (Poly(CH, {(0, 30000): HALF}) * Poly(CH, {(35535, 0): 2})).terms == {
                (35535, 30000): 1}
            assert Y ** self.TOP == yt
            assert yt.diff(1).terms == {(0, self.TOP - 1): self.TOP}
            assert xt.total_degree() == yt.total_degree() == self.TOP
            for p, q in ((xt, X), (yt, Y), (X, yt), (yt, X + 1)):
                with pytest.raises(GrowthLimitError, match=f"degree {self.TOP + 1} "):
                    _ = p * q
            with pytest.raises(GrowthLimitError):
                Poly(CH, {(self.TOP, 1): 1})
        finally:
            set_degree_limit(old)


# -- the accumulator against a reference fold ----------------------------------

CHARTS = (Chart(()), Chart(("x",)), CH, CH3)


@st.composite
def sums(draw):
    """A chart of dimension 0-3 and terms (x, y or None, sign) on it, drawn
    with integer or mixed-denominator coefficients; with ``cancel`` every
    term comes back with the opposite sign, in reverse order."""
    chart = draw(st.sampled_from(CHARTS))
    coeff = draw(st.sampled_from((st.integers(-3, 3), MIXED_COEFF, FRACTIONAL)))
    exps = st.tuples(*[st.integers(0, 2)] * chart.dim)
    maps = st.dictionaries(exps, coeff, max_size=4)
    # one-term factors, the kernel's shifted-copy path: +-1, a fractional
    # constant, a monomial with a fractional coefficient
    nonzero = FRACTIONAL.filter(bool)
    single = st.one_of(st.sampled_from(({(0,) * chart.dim: 1}, {(0,) * chart.dim: -1})),
                       nonzero.map(lambda c: {(0,) * chart.dim: c}),
                       st.builds(lambda e, c: {e: c}, exps, nonzero))
    factors = maps | single
    terms = draw(st.lists(st.tuples(factors, st.none() | factors, st.sampled_from((1, -1))),
                          max_size=6))
    if draw(st.booleans()):
        terms += [(x, y, -s) for x, y, s in reversed(terms)]
    return chart, terms


def ref_sum(terms):
    out = {}
    for x, y, s in terms:
        t = ref_clean(x) if y is None else ref_mul(ref_clean(x), ref_clean(y))
        out = ref_add(out, ref_scale(t, s))
    return out


class TestAccumulator:
    @given(sums())
    @example((CH, [({(1, 0): HALF}, {(0, 1): Fraction(2, 3)}, 1),
                   ({(1, 1): Fraction(1, 3)}, None, -1)]))  # x/2 * 2y/3 - xy/3
    @example((CH3, [({(1, 0, 0): Fraction(1, 4)}, None, 1),
                    ({(1, 0, 0): Fraction(1, 6)}, {(0, 0, 0): Fraction(3, 2)}, -1),
                    ({(0, 0, 1): 2}, None, 1), ({(0, 0, 1): 1}, {(0, 0, 0): 2}, -1)]))
    @example((Chart(()), [({(): Fraction(1, 3)}, {(): 3}, 1), ({(): 1}, None, 1)]))
    @example((CH, [({(1, 1): Fraction(-3, 4)}, {(2, 0): Fraction(2, 3), (0, 1): 1}, 1),
                   ({(0, 1): 1, (1, 0): HALF}, {(0, 0): -1}, -1),
                   ({(1, 1): Fraction(1, 2)}, {(0, 0): Fraction(3, 2)}, 1)]))
    # each branch of add's dispatch, with integer operands into a sum that
    # already holds a fraction and fractional operands into an integer sum:
    # a plain term
    @example((CH, [({(1, 0): HALF}, None, 1), ({(0, 1): 2, (0, 0): -1}, None, -1)]))
    @example((CH, [({(0, 1): 3}, None, 1), ({(1, 0): Fraction(2, 3), (0, 0): 1}, None, 1)]))
    # a one-term factor on the left
    @example((CH, [({(1, 0): Fraction(1, 3)}, None, 1),
                   ({(0, 0): 2}, {(1, 0): 1, (0, 1): -1}, -1)]))
    @example((CH, [({(0, 1): 1}, None, 1),
                   ({(1, 1): Fraction(3, 4)}, {(1, 0): 2, (0, 0): 1}, 1)]))
    # a one-term factor on the right
    @example((CH, [({(0, 0): HALF}, None, 1), ({(1, 0): 1, (0, 1): 2}, {(0, 1): -3}, 1)]))
    @example((CH, [({(1, 0): 2}, {(0, 0): 1}, 1),
                   ({(1, 0): 1, (0, 0): -2}, {(1, 1): Fraction(1, 6)}, -1)]))
    # two multi-term factors
    @example((CH, [({(0, 0): Fraction(2, 3)}, None, -1),
                   ({(1, 0): 1, (0, 0): 2}, {(0, 1): 1, (0, 0): -1}, 1)]))
    @example((CH, [({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 0): -1}, 1),
                   ({(1, 0): HALF, (0, 0): 1}, {(0, 1): Fraction(1, 3), (0, 0): 2}, -1)]))
    # a zero operand: plain, left and right, into a fractional and an integer sum
    @example((CH, [({(1, 0): HALF}, None, 1), ({}, None, 1), ({}, {(1, 0): 1}, 1),
                   ({(0, 1): 1}, {}, -1), ({(0, 0): 3}, {(0, 1): 1}, 1)]))
    @example((CH, [({(1, 0): 2}, None, 1), ({}, {(0, 1): HALF}, 1),
                   ({(0, 1): Fraction(1, 3)}, {}, -1), ({(1, 0): 1}, {(0, 1): 1}, 1)]))
    @settings(max_examples=150, deadline=None)
    def test_matches_a_reference_fold(self, drawn):
        chart, terms = drawn
        acc, fold = _Sum(chart), Poly.zero(chart)
        for x, y, s in terms:
            px = Poly(chart, x)
            py = None if y is None else Poly(chart, y)
            acc.add(px, py, s)
            t = px if py is None else px * py
            fold = fold + t if s > 0 else fold - t
        p = acc.poly()
        assert p.terms == ref_sum(terms)
        num, den = p._num, p._den
        # canonical: no zero numerator, and den > 0 shares no factor with all
        # of them together (x/2 + y keeps den 2 over the numerators 1, 2)
        assert den > 0 and all(num.values()) and gcd(den, *num.values()) == 1
        assert num or den == 1
        assert p == fold and hash(p) == hash(fold)

    def test_chart_mismatch_raises_on_a_zero_operand(self):
        # a zero operand adds nothing, but only after its chart is checked;
        # the sum is left as it was
        zero3, other = Poly.zero(CH3), Poly(CH3, {(0, 1, 0): 1})
        for args in ((zero3,), (zero3, X), (X, zero3), (zero3, other), (other, zero3),
                     (Poly.zero(CH), other), (other, Poly.zero(CH))):
            acc = _Sum(CH)
            acc.add(X, Y)
            with pytest.raises(PolyError, match="chart mismatch"):
                acc.add(*args)
            assert acc.poly() == X * Y


# -- the degree bound every Poly carries ----------------------------------------


def top_part(p):
    """The terms of p of its top total degree."""
    return Poly(p.chart, {e: c for e, c in p.terms.items() if sum(e) == p.total_degree()})


def stale(p, extra):
    """p again, through a sum whose top terms cancel: its bound then exceeds
    its degree by ``extra`` (for extra > 0)."""
    h = Poly(p.chart, {(p.total_degree() + extra,) + (0,) * (p.chart.dim - 1): 1})
    return (p + h) - h


OPS = ("+", "-", "*", "scale", "neg", "diff", "grad", "pow", "parse", "rechart", "cancel")


class TestDegreeBound:
    """``_deg`` bounds the total degree from above after every operation, and
    the product gate, which reads only the bounds while they are within the
    limit, raises exactly when the exact degree rule does."""

    def test_constructors_are_exact(self):
        for p in (Poly(CH, {(2, 1): 1, (0, 1): 3, (5, 0): 0}), Poly.zero(CH),
                  Poly.const(CH, Fraction(2, 3)), Poly.const(CH, 0), X, Poly(CH3, {})):
            assert p._deg == p.total_degree()

    @given(small_polys(), small_polys(), st.lists(st.tuples(
        st.sampled_from(OPS), st.integers(0, 99), st.integers(0, 99)), max_size=8),
        st.fractions(min_value=-3, max_value=3, max_denominator=4))
    @settings(max_examples=100, deadline=None)
    def test_bound_covers_the_degree_after_every_operation(self, p, q, program, s):
        pool = [p, q, stale(p, 2)]
        for op, i, j in program:
            a, b = pool[i % len(pool)], pool[j % len(pool)]
            if op == "+":
                out = [a + b]
            elif op == "-":
                out = [a - b]
            elif op == "*":
                out = [a * b]
            elif op == "scale":
                out = [a * s, s * a]
            elif op == "neg":
                out = [-a]
            elif op == "diff":
                out = [a.diff(0), a.diff(1)]
            elif op == "grad":
                out = a.grad()
            elif op == "pow":
                out = [a ** (j % 3)]
            elif op == "parse":
                out = [parse_poly(CH, str(a))]
            elif op == "rechart":
                up = _rechart(a, CH3)
                out = [up, _rechart(up, CH)]
            else:  # a sum of products whose top terms cancel
                acc = _Sum(CH)
                acc.add(a, b)
                acc.add(b, None, -1)
                acc.add(top_part(a), b, -1)
                acc.add(b)
                out = [acc.poly()]
                assert out[0] == (a - top_part(a)) * b
            for r in out:
                assert r._deg >= r.total_degree()
            pool += [r for r in out if r.chart == CH and r.total_degree() <= 6]

    @given(small_polys().filter(bool), small_polys().filter(bool), st.integers(0, 3),
           st.integers(0, 3), st.integers(-1, 6))
    @settings(max_examples=100, deadline=None)
    def test_gate_raises_exactly_by_the_exact_rule(self, p0, q0, ep, eq, offset):
        """Operands whose bounds exceed their degrees by ep and eq, under a
        limit from just below the product's degree to past the bounds' sum."""
        p, q = stale(p0, ep), stale(q0, eq)
        assert (p._deg, q._deg) == (p0.total_degree() + ep, q0.total_degree() + eq)
        limit = max(p0.total_degree() + q0.total_degree() - 1 + offset, 1)
        old = get_degree_limit()
        set_degree_limit(limit)
        try:
            degs = [sum(e) + sum(f) for e in p.terms for f in q.terms]
            over = [d for d in degs if d > limit]
            acc = _Sum(CH)
            acc.add(X)
            if over:  # the first monomial past the limit, in product order
                message = f"monomial degree {over[0]} exceeds limit {limit}"
                for r in (p, q), (q, p):
                    with pytest.raises(GrowthLimitError) as by_mul:
                        _ = r[0] * r[1]
                    assert str(by_mul.value) == message
                with pytest.raises(GrowthLimitError) as by_sum:
                    acc.add(p, q, -1)
                assert str(by_sum.value) == message
                assert acc.poly() == X
            else:
                pq = p * q
                assert pq == p0 * q0 and pq._deg <= limit
                acc.add(p, q, -1)
                assert acc.deg <= limit and acc.poly() == X - pq
        finally:
            set_degree_limit(old)


# -- the gradient, through which every partial derivative is formed -------------

@st.composite
def chart_polys(draw):
    """A chart of dimension 0-4 and on it zero, a constant, or up to four
    terms of degree <= 2, with integer or fractional coefficients."""
    chart = draw(st.sampled_from(CHARTS + (Chart(("x", "y", "z", "w")),)))
    coeff = draw(st.sampled_from((st.integers(-3, 3), FRACTIONAL)))
    exps = st.tuples(*[st.integers(0, 2)] * chart.dim)
    terms = draw(st.one_of(st.just({}), coeff.map(lambda c: {(0,) * chart.dim: c}),
                           st.dictionaries(exps, coeff, max_size=4)))
    return Poly(chart, terms)


class TestGrad:
    @given(chart_polys())
    @settings(max_examples=150, deadline=None)
    def test_is_every_diff_and_skips_constants(self, p):
        n, diff, calls = p.chart.dim, Poly.diff, []

        def counted(q, i):
            calls.append(i)
            return diff(q, i)
        Poly.diff = counted
        try:
            g = p.grad()
        finally:
            Poly.diff = diff
        assert g == [p.diff(i) for i in range(n)]
        assert all(q._deg >= q.total_degree() for q in g)
        # a constant makes no diff call; any other Poly one per coordinate
        assert calls == ([] if p.total_degree() == 0 else list(range(n)))


@st.composite
def linear_polys(draw):
    """(chart, terms, cancel): a chart of dimension 0-4, a constant and some
    of its linear terms with integer or fractional coefficients, and None or
    linear terms that are added and taken away again, which leaves the bound
    at 1 where the terms alone have degree 0."""
    chart = draw(st.sampled_from(CHARTS + (Chart(("x", "y", "z", "w")),)))
    coeff = draw(st.sampled_from((st.integers(-3, 3), FRACTIONAL)))
    n = chart.dim
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    exps = st.sampled_from([(0,) * n] + units)
    terms = draw(st.dictionaries(exps, coeff, max_size=n + 1))
    cancel = draw(st.none() | st.dictionaries(st.sampled_from(units), coeff.filter(bool),
                                              min_size=1)) if n else None
    return chart, terms, cancel


class TestLinearDiff:
    """On a bound of at most 1, ``diff`` reads x_i's coefficient off its key."""

    @given(linear_polys())
    @example((CH, {(0, 0): 3, (1, 0): 1}, None))  # no key for y
    @example((CH, {(0, 0): 3}, {(1, 0): 1}))  # the bound overstates: no key at all
    @example((CH3, {(1, 0, 0): 2, (0, 0, 1): -3}, None))  # integer
    @example((CH, {(1, 0): Fraction(2, 3), (0, 1): Fraction(1, 6)}, None))  # 4/6 -> 2/3
    @example((CH, {(1, 0): Fraction(1, 2), (0, 0): 1}, None))  # 1/2, no common factor
    @settings(max_examples=150, deadline=None)
    def test_reads_the_partial_off_the_key(self, drawn):
        chart, terms, cancel = drawn
        p = Poly(chart, terms)
        if cancel is not None:
            h = Poly(chart, cancel)
            p = (p + h) - h
        n = chart.dim
        assert p._deg == (1 if p and (cancel or any(map(sum, p.terms))) else 0)
        for i in range(n):
            q, ref = p.diff(i), Poly(chart, {(0,) * n: c for e, c in p.terms.items() if e[i]})
            assert q.terms == ref.terms and q == ref and hash(q) == hash(ref)
            assert q._deg == 0 and q._den > 0 and gcd(q._den, *q._num.values()) == 1
            assert 0 not in q._num.values()
        for i in (-1, n):
            with pytest.raises(IndexError):
                p.diff(i)
