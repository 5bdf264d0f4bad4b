"""Polynomial kernel: ring axioms, parsing, differentiation, growth limits."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lnlab.poly import (Chart, GrowthLimitError, ParseError, Poly, PolyError,
                        get_degree_limit, parse_poly, set_degree_limit)

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
        assert_canonical(p ** n, ref_pow(a, n))
        for i in range(CH.dim):
            assert_canonical(p.diff(i), ref_diff(a, i))

    def test_constant_value_is_a_fraction(self):
        c = (Poly.const(CH, HALF) * 4).constant_value()
        assert c == 2 and type(c) is Fraction


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

    @given(small_polys(), small_polys(), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_mul_raises_iff_degree_sum_exceeds_limit(self, p, q, limit):
        over = not p.is_zero and not q.is_zero and p.total_degree() + q.total_degree() > limit
        old = get_degree_limit()
        set_degree_limit(limit)
        try:
            if over:
                with pytest.raises(GrowthLimitError):
                    _ = p * q
            else:
                assert (p * q).total_degree() <= limit
        finally:
            set_degree_limit(old)
