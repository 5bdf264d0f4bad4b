"""Exterior calculus layer: wedge, d, interior products, and the three
brackets (Lie, Frolicher-Nijenhuis, Schouten) with their defining identities."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnlab.poly import Chart, Poly, PolyError
from lnlab.forms import (DiffForm, Multivector, VForm, bivector_from_sharp,
                         exterior_d, frolicher_nijenhuis, interior_vvf,
                         lie_derivative_vvf, nijenhuis_torsion, schouten, sharp,
                         sharp_matrix, sort_index, vf_bracket, wedge)
from lnlab.matrix import mat_vec
from lnlab.pnlab import concomitant_C

from helpers import (CH2, CH3, derivative, gd_is_zero, interior_vector, pairing,
                     ref_concomitant_C, ref_insert_vector, ref_interior_vvf, ref_lie,
                     ref_schouten, ref_sort_index, ref_wedge_scalar, rnd_form, rnd_mv,
                     rnd_one_form, rnd_poly, rnd_vf, rnd_vvform, st_forms, st_polys,
                     st_vvforms, wedge_scalar)

X2 = Poly.var(CH2, "x")
Y2 = Poly.var(CH2, "y")
ONE2 = Poly.const(CH2, 1)
ONE3 = Poly.const(CH3, 1)
ID2 = VForm(CH2, 1, 2, {((0,), 0): ONE2, ((1,), 1): ONE2})


class TestSortIndex:
    def test_sorted_is_fixed(self):
        assert sort_index((0, 1, 2)) == ((0, 1, 2), 1)

    def test_single_swap(self):
        assert sort_index((1, 0)) == ((0, 1), -1)

    def test_three_cycle(self):
        assert sort_index((2, 0, 1)) == ((0, 1, 2), 1)

    def test_repeat_vanishes(self):
        assert sort_index((0, 0)) is None
        assert sort_index((1, 2, 1)) is None

    def test_matches_insertion_sort_up_to_five_indices(self):
        # lengths 0-3 take the direct comparisons, 4 and 5 the loop
        for n in range(6):
            for idx in product(range(5), repeat=n):
                assert sort_index(idx) == sort_index(list(idx)) == ref_sort_index(idx)


class TestWedge:
    def test_graded_commutativity(self):
        rng = random.Random(1)
        for p, q in [(1, 1), (1, 2), (2, 1)]:
            a, b = rnd_form(rng, CH3, p), rnd_form(rng, CH3, q)
            sign = (-1) ** (p * q)
            assert wedge(a, b) == wedge(b, a) * sign

    def test_associativity(self):
        rng = random.Random(2)
        a, b, c = (rnd_form(rng, CH3, 1) for _ in range(3))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_basis_example(self):
        dx = DiffForm.basis(CH2, (0,))
        dy = DiffForm.basis(CH2, (1,))
        assert wedge(dx, dy).coeff((0, 1)) == ONE2
        assert wedge(dy, dx).coeff((0, 1)) == -ONE2

    def test_top_degree_truncation(self):
        rng = random.Random(3)
        a, b = rnd_form(rng, CH2, 1), rnd_form(rng, CH2, 2)
        assert wedge(a, b).is_zero


class TestExteriorD:
    def test_d_squared_zero(self):
        rng = random.Random(4)
        for deg in (0, 1, 2):
            a = rnd_form(rng, CH3, deg)
            assert exterior_d(exterior_d(a)).is_zero

    def test_leibniz(self):
        rng = random.Random(5)
        for p, q in [(0, 1), (1, 1), (1, 2)]:
            a, b = rnd_form(rng, CH3, p), rnd_form(rng, CH3, q)
            lhs = exterior_d(wedge(a, b))
            rhs = wedge(exterior_d(a), b) + wedge(a, exterior_d(b)) * ((-1) ** p)
            assert lhs == rhs

    def test_d_of_function(self):
        f = DiffForm(CH2, 0, {(): X2 * X2 * Y2})
        df = exterior_d(f)
        assert df.coeff((0,)) == 2 * X2 * Y2
        assert df.coeff((1,)) == X2 * X2


class TestInterior:
    def test_nilpotent(self):
        rng = random.Random(6)
        comps = [rnd_poly(rng, CH3) for _ in range(3)]
        a = rnd_form(rng, CH3, 3)
        assert interior_vector(comps, interior_vector(comps, a)).is_zero

    def test_derivation_over_wedge(self):
        rng = random.Random(7)
        comps = [rnd_poly(rng, CH3) for _ in range(3)]
        for p, q in [(1, 1), (1, 2)]:
            a, b = rnd_form(rng, CH3, p), rnd_form(rng, CH3, q)
            lhs = interior_vector(comps, wedge(a, b))
            rhs = (wedge(interior_vector(comps, a), b)
                   + wedge(a, interior_vector(comps, b)) * ((-1) ** p))
            assert lhs == rhs

    def test_identity_insertion_counts_degree(self):
        rng = random.Random(8)
        for deg in (1, 2):
            a = rnd_form(rng, CH2, deg)
            assert interior_vvf(ID2, a) == a * deg


class TestLieDerivative:
    def test_commutes_with_d_for_fields(self):
        rng = random.Random(9)
        Xf = rnd_vf(rng, CH2)
        a = rnd_one_form(rng, CH2)
        assert lie_derivative_vvf(Xf, exterior_d(a)) == exterior_d(lie_derivative_vvf(Xf, a))

    def test_on_functions(self):
        Xf = VForm.section(CH2, [X2, Y2 * Y2])
        f = DiffForm(CH2, 0, {(): X2 * Y2})
        out = lie_derivative_vvf(Xf, f)
        assert out.coeff(()) == X2 * Y2 + Y2 * Y2 * X2
        assert derivative(Xf.section_components(), X2 * Y2) == out.coeff(())

    def test_bracket_compatibility(self):
        # L_[X,Y] = L_X L_Y - L_Y L_X on forms
        rng = random.Random(10)
        Xf, Yf = rnd_vf(rng, CH2), rnd_vf(rng, CH2)
        a = rnd_one_form(rng, CH2)
        lhs = lie_derivative_vvf(vf_bracket(Xf, Yf), a)
        rhs = (lie_derivative_vvf(Xf, lie_derivative_vvf(Yf, a))
               - lie_derivative_vvf(Yf, lie_derivative_vvf(Xf, a)))
        assert lhs == rhs

    @given(st.data())
    @settings(max_examples=75, deadline=None)
    def test_decomposable_formula(self, data):
        """[i_K, d] a = sum_u K^u ^ d_u a + (-1)^k dK^u ^ i_u a for constant
        frame fields (Kolar, Michor & Slovak 1993, sec. 8), with d_u a the
        coefficientwise partial and i_u the contraction with d/dx_u."""
        chart = data.draw(st.sampled_from((CH2, CH3)))
        k = data.draw(st.integers(0, chart.dim))
        j = data.draw(st.integers(0, chart.dim))
        K = data.draw(st_vvforms(chart, k, chart.dim))
        a = data.draw(st_forms(chart, j))

        def contract(u: int) -> DiffForm:  # i_u a, a (j-1)-form
            out = DiffForm.zero(chart, j - 1)
            for idx, p in a.coeffs.items():
                if u in idx:
                    pos = idx.index(u)
                    rest = idx[:pos] + idx[pos + 1:]
                    out = out + DiffForm(chart, j - 1, {rest: p * (-1) ** pos})
            return out

        expect = DiffForm.zero(chart, k + j)
        for u in range(chart.dim):
            Ku = K.component(u)
            d_u_a = DiffForm(chart, j, {idx: p.diff(u) for idx, p in a.coeffs.items()})
            expect = expect + wedge(Ku, d_u_a)
            if j:
                expect = expect + wedge(exterior_d(Ku), contract(u)) * (-1) ** k
        assert lie_derivative_vvf(K, a) == expect == ref_lie(K, a)


class TestVectorFieldBracket:
    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(11)
        Xf, Yf, Zf = (rnd_vf(rng, CH3) for _ in range(3))
        assert (vf_bracket(Xf, Yf) + vf_bracket(Yf, Xf)).is_zero
        jac = (vf_bracket(Xf, vf_bracket(Yf, Zf))
               + vf_bracket(Yf, vf_bracket(Zf, Xf))
               + vf_bracket(Zf, vf_bracket(Xf, Yf)))
        assert jac.is_zero

    def test_known_value(self):
        Xf = VForm.section(CH2, [X2 * Y2, Poly.zero(CH2)])
        Yf = VForm.section(CH2, [Poly.zero(CH2), ONE2])
        # [xy dx, dy] = -x dx
        assert vf_bracket(Xf, Yf).section_components()[0] == -X2


class TestFrolicherNijenhuis:
    def test_degree_zero_is_lie_bracket(self):
        rng = random.Random(12)
        Xf, Yf = rnd_vf(rng, CH2), rnd_vf(rng, CH2)
        assert frolicher_nijenhuis(Xf, Yf) == vf_bracket(Xf, Yf)

    def test_graded_antisymmetry(self):
        rng = random.Random(13)
        for k, l in [(1, 1), (0, 1), (1, 2)]:
            K, L = rnd_vvform(rng, CH2, k), rnd_vvform(rng, CH2, l)
            assert frolicher_nijenhuis(K, L) == frolicher_nijenhuis(L, K) * (-((-1) ** (k * l)))

    def test_graded_jacobi(self):
        rng = random.Random(14)
        K0 = rnd_vf(rng, CH2)
        K1, L1 = rnd_vvform(rng, CH2, 1), rnd_vvform(rng, CH2, 1)
        fn = frolicher_nijenhuis
        # degrees (0, 1, 1): cyclic signs (-1)^(k1 k3), (-1)^(k2 k1), (-1)^(k3 k2)
        lhs = (fn(K0, fn(K1, L1))
               + fn(K1, fn(L1, K0))
               - fn(L1, fn(K0, K1)))
        assert lhs.is_zero

    def test_identity_is_central(self):
        rng = random.Random(15)
        K = rnd_vvform(rng, CH2, 1)
        assert frolicher_nijenhuis(ID2, K).is_zero

    def test_torsion_is_half_self_bracket(self):
        rng = random.Random(16)
        for _ in range(5):
            r = rnd_vvform(rng, CH2, 1)
            half = frolicher_nijenhuis(r, r) * Fraction(1, 2)
            assert nijenhuis_torsion(r) == half


class TestTorsion:
    def test_complex_structure_is_integrable(self):
        J = VForm(CH2, 1, 2, {((0,), 1): ONE2, ((1,), 0): -ONE2})
        assert nijenhuis_torsion(J).is_zero

    def test_scalar_multiple_of_identity(self):
        f = X2 + Y2
        r = VForm(CH2, 1, 2, {((0,), 0): f, ((1,), 1): f})
        assert nijenhuis_torsion(r).is_zero

    def test_known_nonzero_value(self):
        # r = y dx (x) d/dx has N_r = y dx^dy (x) d/dx
        r = VForm(CH2, 1, 2, {((0,), 0): Y2})
        N = nijenhuis_torsion(r)
        assert N.coeffs == {((0, 1), 0): Y2}


class TestSchouten:
    def test_vector_field_case_is_lie_derivative(self):
        rng = random.Random(17)
        Xf = rnd_vf(rng, CH2)
        Xmv = Multivector(CH2, 1, {(i,): p for i, p in
                                   enumerate(Xf.section_components()) if not p.is_zero})
        Ymv = rnd_mv(rng, CH2, 1)
        Yf = VForm.section(CH2, [Ymv.coeff((i,)) for i in range(2)])
        br = schouten(Xmv, Ymv)
        lie = vf_bracket(Xf, Yf)
        assert [br.coeff((i,)) for i in range(2)] == lie.section_components()

    def test_graded_antisymmetry(self):
        rng = random.Random(18)
        for p, q in [(1, 2), (2, 2), (2, 3), (1, 3),
                     (2, 0), (0, 2), (1, 0), (0, 3)]:
            P, Q = rnd_mv(rng, CH3, p), rnd_mv(rng, CH3, q)
            sign = -((-1) ** ((p - 1) * (q - 1) % 2))
            assert schouten(P, Q) == schouten(Q, P) * sign

    def test_leibniz(self):
        rng = random.Random(19)
        P = rnd_mv(rng, CH3, 1)
        Q = rnd_mv(rng, CH3, 1)
        S = rnd_mv(rng, CH3, 2)
        lhs = schouten(P, wedge(Q, S))
        rhs = (wedge(schouten(P, Q), S)
               + wedge(Q, schouten(P, S)))
        assert lhs == rhs

    def test_leibniz_with_a_function(self):
        # [P, Q ^ f] = [P, Q] ^ f + (-1)^((p-1) q) Q ^ [P, f]
        rng = random.Random(21)
        f = rnd_mv(rng, CH3, 0)
        for p in (1, 2, 3):
            for q in (0, 1, 2):
                P, Q = rnd_mv(rng, CH3, p), rnd_mv(rng, CH3, q)
                lhs = schouten(P, wedge(Q, f))
                rhs = (wedge(schouten(P, Q), f)
                       + wedge(Q, schouten(P, f)) * (-1) ** ((p - 1) * q))
                assert lhs == rhs, (p, q)

    def test_function_values(self):
        # [P, f] = (-1)^(p-1) i_df P and [f, Q] = -i_df Q
        rng = random.Random(22)
        f = rnd_mv(rng, CH3, 0)
        df = [f.coeff(()).diff(i) for i in range(3)]
        for p in (1, 2, 3):
            P = rnd_mv(rng, CH3, p)
            assert schouten(P, f) == interior_vector(df, P) * (-1) ** (p - 1)
            assert schouten(f, P) == -interior_vector(df, P)

    def test_graded_jacobi(self):
        rng = random.Random(20)
        P = rnd_mv(rng, CH2, 1)
        Q = rnd_mv(rng, CH2, 2)
        S = rnd_mv(rng, CH2, 2)
        p, q, s = 0, 1, 1  # shifted degrees
        lhs = (schouten(P, schouten(Q, S)) * ((-1) ** (p * s))
               + schouten(Q, schouten(S, P)) * ((-1) ** (q * p))
               + schouten(S, schouten(P, Q)) * ((-1) ** (s * q)))
        assert lhs.is_zero

    def test_poisson_examples(self):
        z3 = Poly.var(CH3, "z")
        x3 = Poly.var(CH3, "x")
        y3 = Poly.var(CH3, "y")
        pi = Multivector(CH3, 2, {(0, 1): z3, (1, 2): x3})
        assert schouten(pi, pi).is_zero
        bad = Multivector(CH3, 2, {(0, 1): y3, (1, 2): x3})
        defect = schouten(bad, bad)
        assert defect.coeffs == {(0, 1, 2): -2 * x3}


class TestSharp:
    def test_standard_symplectic(self):
        pi0 = Multivector(CH2, 2, {(0, 1): ONE2})
        dx = DiffForm.basis(CH2, (0,))
        dy = DiffForm.basis(CH2, (1,))
        assert sharp(pi0, dx).section_components() == [Poly.zero(CH2), ONE2]
        assert sharp(pi0, dy).section_components() == [-ONE2, Poly.zero(CH2)]

    def test_pairing_recovers_bivector(self):
        rng = random.Random(21)
        P = rnd_mv(rng, CH3, 2)
        a, b = rnd_one_form(rng, CH3), rnd_one_form(rng, CH3)
        lhs = pairing(b, sharp(P, a))
        rhs = Poly.zero(CH3)
        for i in range(3):
            for j in range(3):
                rhs = rhs + a.coeff((i,)) * b.coeff((j,)) * P.coeff((i, j))
        assert lhs == rhs

    def test_matrix_round_trip(self):
        rng = random.Random(22)
        P = rnd_mv(rng, CH3, 2)
        assert bivector_from_sharp(CH3, sharp_matrix(P)) == P

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_matrix_reads_every_entry(self, data):
        # the mirrored triangle against the signed lookup of every entry
        chart = data.draw(st.sampled_from((CH1, CH2, CH3, CH4)))
        P = data.draw(st_forms(chart, 2, Multivector))
        n = chart.dim
        assert sharp_matrix(P) == [[P.coeff((i, j)) for i in range(n)] for j in range(n)]

    def test_matrix_needs_a_bivector(self):
        with pytest.raises(ValueError):
            sharp_matrix(Multivector(CH3, 3, {(0, 1, 2): ONE3}))


class TestConstructorValidation:
    """The public constructors check their keys; operation results do not."""

    BAD_INDICES = [(1, 0), (1, 1), (0, 3), (-1, 0), (0,), (0, 1, 2)]

    @pytest.mark.parametrize("cls", [DiffForm, Multivector])
    @pytest.mark.parametrize("idx", BAD_INDICES)
    def test_alternating_rejects_bad_index(self, cls, idx):
        with pytest.raises(ValueError):
            cls(CH3, 2, {idx: Poly.const(CH3, 1)})

    @pytest.mark.parametrize("idx", BAD_INDICES)
    def test_vform_rejects_bad_index(self, idx):
        with pytest.raises(ValueError):
            VForm(CH3, 2, 3, {(idx, 0): Poly.const(CH3, 1)})

    @pytest.mark.parametrize("v", [-1, 3])
    def test_vform_rejects_bad_value_slot(self, v):
        with pytest.raises(ValueError):
            VForm(CH3, 1, 3, {((0,), v): Poly.const(CH3, 1)})

    def test_vform_from_components_rejects_degree_mismatch(self):
        one = Poly.const(CH3, 1)
        forms = [DiffForm(CH3, 1, {(0,): one}), DiffForm(CH3, 2, {(0, 1): one})]
        with pytest.raises(ValueError):
            VForm.from_components(forms, 1)

    def test_valid_keys_kept_and_zeros_dropped(self):
        one, zero = Poly.const(CH3, 1), Poly.zero(CH3)
        for form in (DiffForm(CH3, 2, {(0, 2): one, (1, 2): zero}),
                     Multivector(CH3, 2, {(0, 2): one, (1, 2): zero})):
            assert form.coeffs == {(0, 2): one}
        v = VForm(CH3, 1, 2, {((2,), 1): one, ((0,), 0): zero})
        assert v.coeffs == {((2,), 1): one}


# -- oracles for the fused kernels -------------------------------------------
# Each reference expands one decomposable at a time from the definitions,
# using only wedge, interior_vector, exterior_d, DiffForm.basis and the
# container's + and scaling.

DIM_CHARTS = st.sampled_from((CH2, CH3))
CH1 = Chart(("x",))
CH4 = Chart(("x", "y", "z", "w"))
ONE_FORM_KINDS = ("coframe", "constant", "exact", "general")


def st_one_forms(chart: Chart, kind: str):
    """1-forms of one kind: a coframe form dx_i, a constant form, an exact
    non-constant form d(f), or a non-constant form."""
    n = chart.dim
    if kind == "coframe":
        return st.integers(0, n - 1).map(lambda i: DiffForm.basis(chart, (i,)))
    if kind == "constant":
        return st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
            lambda cs: DiffForm(chart, 1, {(i,): Poly.const(chart, c)
                                           for i, c in enumerate(cs)}))
    if kind == "exact":
        return st_polys(chart).filter(lambda f: f.total_degree() == 2).map(
            lambda f: exterior_d(DiffForm(chart, 0, {(): f})))
    return st_forms(chart, 1).filter(
        lambda f: any(p.total_degree() for p in f.coeffs.values()))


def ref_frolicher_nijenhuis(K: VForm, L: VForm) -> VForm:
    """Four-term expansion on phi (x) d/dx_va, psi (x) d/dx_vb:
    phi ^ d_va psi (x) d_vb - d_vb phi ^ psi (x) d_va
    + (-1)^k (d phi ^ i_va psi (x) d_vb + i_vb phi ^ d psi (x) d_va)."""
    chart = K.chart
    n, k, l = chart.dim, K.degree, L.degree
    units = [[Poly.const(chart, int(i == j)) for j in range(n)] for i in range(n)]
    slots = [DiffForm.zero(chart, k + l) for _ in range(n)]
    for (ia, va), pa in K.coeffs.items():
        phi = DiffForm.basis(chart, ia) * pa
        for (ib, vb), pb in L.coeffs.items():
            psi = DiffForm.basis(chart, ib) * pb
            slots[vb] = slots[vb] + wedge(phi, DiffForm.basis(chart, ib) * pb.diff(va))
            slots[va] = slots[va] - wedge(DiffForm.basis(chart, ia) * pa.diff(vb), psi)
            if l > 0:
                t = wedge(exterior_d(phi), interior_vector(units[va], psi))
                slots[vb] = slots[vb] + t * (-1) ** k
            if k > 0:
                t = wedge(interior_vector(units[vb], phi), exterior_d(psi))
                slots[va] = slots[va] + t * (-1) ** k
    return VForm.from_components(slots, k + l)


class TestFusedKernelOracles:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_interior_vvf(self, data):
        chart = data.draw(DIM_CHARTS)
        K = data.draw(st_vvforms(chart, data.draw(st.integers(0, 2)), chart.dim))
        a = data.draw(st_forms(chart, data.draw(st.integers(0, 3))))
        assert interior_vvf(K, a) == ref_interior_vvf(K, a)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_wedge_scalar(self, data):
        chart = data.draw(DIM_CHARTS)
        K = data.draw(st_vvforms(chart, data.draw(st.integers(0, 2)),
                                 data.draw(st.integers(1, 3))))
        a = data.draw(st_forms(chart, data.draw(st.integers(0, 3))))
        assert wedge_scalar(K, a) == ref_wedge_scalar(a, K)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_frolicher_nijenhuis(self, data):
        chart = data.draw(DIM_CHARTS)
        K = data.draw(st_vvforms(chart, data.draw(st.integers(0, 2)), chart.dim))
        L = data.draw(st_vvforms(chart, data.draw(st.integers(0, 3)), chart.dim))
        assert frolicher_nijenhuis(K, L) == ref_frolicher_nijenhuis(K, L)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_schouten(self, data):
        chart = data.draw(st.sampled_from((CH2, CH3, CH4)))
        P = data.draw(st_forms(chart, data.draw(st.integers(1, 3)), Multivector))
        Q = data.draw(st_forms(chart, data.draw(st.integers(1, 3)), Multivector))
        assert schouten(P, Q) == ref_schouten(P, Q)

    # A self-bracket of the same object forms one half-sum (none when its
    # sign cancels it); an equal copy takes the general two-half path.

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_frolicher_nijenhuis_self_bracket(self, data):
        chart = data.draw(DIM_CHARTS)
        K = data.draw(st_vvforms(chart, data.draw(st.integers(0, 3)), chart.dim))
        copy = VForm(chart, K.degree, K.vals, dict(K.coeffs))
        assert copy is not K and copy == K
        ref = ref_frolicher_nijenhuis(K, K)
        assert frolicher_nijenhuis(K, K) == ref
        assert frolicher_nijenhuis(K, copy) == ref

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_schouten_self_bracket(self, data):
        chart = data.draw(st.sampled_from((CH2, CH3, CH4)))
        P = data.draw(st_forms(chart, data.draw(st.integers(0, 3)), Multivector))
        copy = Multivector(chart, P.degree, dict(P.coeffs))
        assert copy is not P and copy == P
        # [f, f] would have degree -1; the reference covers degrees >= 1
        ref = ref_schouten(P, P) if P.degree else Multivector(chart, 0)
        assert schouten(P, P) == ref
        assert schouten(P, copy) == ref

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_concomitant_C(self, data):
        # r o pi# is rarely selfadjoint here, so every term of C is exercised;
        # U a and U b enter only where db and da are nonzero, as for "general"
        chart = data.draw(st.sampled_from((CH1, CH2, CH3, CH4)))
        pi = data.draw(st_forms(chart, 2, Multivector))
        r = data.draw(st_vvforms(chart, 1, chart.dim))
        a, b = (data.draw(st_one_forms(chart, kind))
                for kind in data.draw(st.tuples(*[st.sampled_from(ONE_FORM_KINDS)] * 2)))
        assert concomitant_C(pi, r, a, b) == ref_concomitant_C(pi, r, a, b)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_insert_vector(self, data):
        # value slots from 1 to 4, so bundle-valued forms (vals != dim) occur
        chart = data.draw(DIM_CHARTS)
        K = data.draw(st_vvforms(chart, data.draw(st.integers(1, 3)),
                                 data.draw(st.integers(1, 4))))
        X = data.draw(st_vvforms(chart, 0, chart.dim))
        assert K.insert_vector(X) == ref_insert_vector(K, X)


X3, Y3, Z3 = (Poly.var(CH3, c) for c in "xyz")
# pairs where both contraction terms act, with K of odd and of even degree
CONTRACTING = [
    (VForm(CH3, 1, 3, {((1,), 2): X3}), VForm(CH3, 1, 3, {((2,), 0): ONE3})),
    (VForm(CH3, 1, 3, {((0,), 1): X3 + Z3, ((2,), 0): Y3 * X3}),
     VForm(CH3, 2, 3, {((1, 2), 0): Y3 * Z3, ((0, 1), 2): X3 + ONE3})),
]


@pytest.mark.parametrize("K, L", CONTRACTING + [(L, K) for K, L in CONTRACTING])
def test_frolicher_nijenhuis_contraction_terms(K, L):
    assert frolicher_nijenhuis(K, L) == ref_frolicher_nijenhuis(K, L)


def dense_poly(rng: random.Random, chart: Chart, degree: int = 4) -> Poly:
    """A homogeneous polynomial with every monomial of its degree."""
    return Poly(chart, {e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 5)))
                        for e in product(range(degree + 1), repeat=chart.dim)
                        if sum(e) == degree})


def product_log(monkeypatch) -> list[int]:
    """The list to which every product added into a sum from now on appends
    its sign."""
    from lnlab import poly
    products = []
    add = poly._Sum.add

    def counted(self, x, y=None, sign=1):
        if y is not None:
            products.append(sign)
        add(self, x, y, sign)
    monkeypatch.setattr(poly._Sum, "add", counted)
    return products


def test_brackets_form_each_product_once(monkeypatch):
    """Products formed on fully dense inputs over CH3: one half-sum per
    bracket, with the contraction term from d of a value component, one half
    for a self-bracket and none where its sign cancels it, and r applied once
    per frame pair."""
    rng = random.Random(17)

    def dense(cls, degree, *vals):
        keys = combinations(range(3), degree)
        if vals:
            keys = [(idx, v) for idx in keys for v in range(3)]
        return cls(CH3, degree, *vals, {key: dense_poly(rng, CH3) for key in keys})
    r, s, K2 = dense(VForm, 1, 3), dense(VForm, 1, 3), dense(VForm, 2, 3)
    P, T = dense(Multivector, 2), dense(Multivector, 3)
    products = product_log(monkeypatch)
    for bracket, expected in (
            (lambda: frolicher_nijenhuis(r, r), 81),
            (lambda: frolicher_nijenhuis(r, s), 162),
            (lambda: nijenhuis_torsion(r), 81),
            (lambda: schouten(P, P), 6),
            (lambda: frolicher_nijenhuis(K2, K2), 0),
            (lambda: schouten(T, T), 0)):
        products.clear()
        assert bracket().is_zero == (expected == 0)
        assert len(products) == expected


def test_torsion_forms_each_partial_once(monkeypatch):
    """N_r of a dense endomorphism over CH3 takes each matrix entry's
    gradient once per call, not once per frame pair."""
    rng = random.Random(18)
    r = VForm(CH3, 1, 3, {((i,), v): dense_poly(rng, CH3) for i in range(3) for v in range(3)})
    seen, diff = [], Poly.diff

    def counted(p, i):
        seen.append((p, i))
        return diff(p, i)
    monkeypatch.setattr(Poly, "diff", counted)
    assert not nijenhuis_torsion(r).is_zero
    assert sorted((id(p), i) for p, i in seen) == sorted(
        (id(p), i) for p in r.coeffs.values() for i in range(3))


def test_concomitant_C_products(monkeypatch):
    """Products formed by C on dense pi and r over CH3.  A coframe pair
    reads r*v and pi# v as matrix columns and, being closed, forms no U and
    no V: 3 for <b, pi# a>, 3 for <r*a, pi# b>, 9 for r*[a, b]_pi and 18
    for the terms in pi# b and pi# a.  A general pair adds 36 for r*a, pi# a,
    r*b and pi# b, 36 for U a and U b, 18 for the interior terms of
    [a, b]_pi and 18 for the terms in U a and U b: 141."""
    rng = random.Random(18)
    pi = Multivector(CH3, 2, {k: dense_poly(rng, CH3) for k in combinations(range(3), 2)})
    r = VForm(CH3, 1, 3, {((i,), v): dense_poly(rng, CH3) for i in range(3) for v in range(3)})
    a, b = (DiffForm(CH3, 1, {(i,): dense_poly(rng, CH3) for i in range(3)}) for _ in range(2))
    dx, dz = DiffForm.basis(CH3, (0,)), DiffForm.basis(CH3, (2,))
    products = product_log(monkeypatch)
    for pair, expected in (((dx, dz), 33), ((a, b), 141)):
        products.clear()
        assert not concomitant_C(pi, r, *pair).is_zero
        assert len(products) == expected


# -- oracles from the vector-field formulas ----------------------------------
# Independent of the bracket kernels: frame fields, vf_bracket, insert_vector
# and plain polynomial arithmetic only.


def frame_fields(chart: Chart) -> list[VForm]:
    return [VForm.section(chart, [Poly.const(chart, int(i == j)) for j in range(chart.dim)])
            for i in range(chart.dim)]


def vf_frolicher_nijenhuis(K: VForm, L: VForm) -> VForm:
    """[K, L] of degree-1 forms on frame pairs (X, Y):
    [KX,LY] + [LX,KY] - K([LX,Y] + [X,LY]) - L([KX,Y] + [X,KY]) + (KL+LK)[X,Y]."""
    chart, n = K.chart, K.chart.dim
    E = frame_fields(chart)
    coeffs = {}
    for i, j in combinations(range(n), 2):
        X, Y = E[i], E[j]
        KX, KY, LX, LY = K.insert_vector(X), K.insert_vector(Y), L.insert_vector(X), L.insert_vector(Y)
        XY = vf_bracket(X, Y)
        val = (vf_bracket(KX, LY) + vf_bracket(LX, KY)
               - K.insert_vector(vf_bracket(LX, Y) + vf_bracket(X, LY))
               - L.insert_vector(vf_bracket(KX, Y) + vf_bracket(X, KY))
               + K.insert_vector(L.insert_vector(XY)) + L.insert_vector(K.insert_vector(XY)))
        for v, p in enumerate(val.section_components()):
            coeffs[((i, j), v)] = p
    return VForm(chart, 2, n, coeffs)


def poisson_bracket(pi: Multivector, f: Poly, g: Poly) -> Poly:
    """{f, g} = pi(df, dg) = <dg, X_f>, with X_f = pi(df, .) by insert_vector
    of the gradient of f into pi read as a map of covectors to vectors."""
    chart, n = pi.chart, pi.chart.dim
    pi_map = VForm(chart, 1, n, {((a,), b): pi.coeff((a, b)) for a in range(n)
                                 for b in range(n) if a != b})
    Xf = pi_map.insert_vector(VForm.section(chart, [f.diff(a) for a in range(n)]))
    out = Poly.zero(chart)
    for b, c in enumerate(Xf.section_components()):
        out = out + c * g.diff(b)
    return out


# so(3)* is Poisson; adding y d/dx ^ d/dy breaks Jacobi on (x, y, z)
SO3 = Multivector(CH3, 2, {(0, 1): Z3, (1, 2): X3, (0, 2): -Y3})
NOT_POISSON = SO3 + Multivector(CH3, 2, {(0, 1): Y3})


class TestVectorFieldOracles:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_frolicher_nijenhuis_of_one_forms(self, data):
        chart = data.draw(DIM_CHARTS)
        K, L = (data.draw(st_vvforms(chart, 1, chart.dim)) for _ in range(2))
        assert frolicher_nijenhuis(K, L) == vf_frolicher_nijenhuis(K, L)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_schouten_square_is_twice_the_jacobiator(self, data):
        chart = data.draw(st.sampled_from((CH3, CH4)))
        self.check_jacobiator(data.draw(st_forms(chart, 2, Multivector)))

    @pytest.mark.parametrize("pi, poisson", [(SO3, True), (NOT_POISSON, False)])
    def test_jacobiator_on_known_bivectors(self, pi, poisson):
        assert self.check_jacobiator(pi).is_zero == poisson

    @staticmethod
    def check_jacobiator(pi: Multivector) -> Multivector:
        """[pi, pi](dx_i, dx_j, dx_k) = 2 ({x_i,{x_j,x_k}} + cyclic)."""
        chart = pi.chart
        xs = [Poly.coord(chart, i) for i in range(chart.dim)]
        S = schouten(pi, pi)
        for i, j, k in combinations(range(chart.dim), 3):
            jac = Poly.zero(chart)
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                jac = jac + poisson_bracket(pi, xs[a], poisson_bracket(pi, xs[b], xs[c]))
            assert S.coeff((i, j, k)) == 2 * jac
        return S


class TestKernelErrorContract:
    """The fused kernels keep the errors and shapes of the expansions."""

    K2 = VForm(CH2, 1, 2, {((0,), 1): X2})
    A3 = DiffForm(CH3, 1, {(0,): Poly.var(CH3, "x")})

    def test_chart_mismatch(self):
        with pytest.raises(PolyError):
            interior_vvf(self.K2, self.A3)
        with pytest.raises(PolyError):
            frolicher_nijenhuis(self.K2, VForm(CH3, 1, 3, {((0,), 1): ONE3}))

    def test_zero_factor_on_another_chart(self):
        # a zero factor skips the accumulator, but its chart is still checked
        zero3 = Poly.zero(CH3)
        for M, v in (([[zero3]], [X2]), ([[X2]], [zero3]), ([[X2, zero3]], [X2, X2])):
            with pytest.raises(PolyError, match="chart mismatch"):
                mat_vec(M, v)
        with pytest.raises(PolyError, match="chart mismatch"):
            vf_bracket(VForm.section(CH2, [X2, Y2]), VForm.section(CH3, [zero3] * 3))

    def test_vf_bracket_across_charts(self):
        # the only nonzero component is on a coordinate the other chart lacks
        zero2, zero3 = Poly.zero(CH2), Poly.zero(CH3)
        X = VForm.section(CH3, [zero3, zero3, Poly.var(CH3, "z")])
        Y = VForm.section(CH2, [zero2, zero2])
        for P, Q in ((X, Y), (Y, X)):
            with pytest.raises(PolyError, match="chart mismatch"):
                vf_bracket(P, Q)

    def test_non_tangent_form(self):
        bundle_valued = VForm(CH2, 1, 3, {((0,), 2): X2})
        with pytest.raises(PolyError):
            interior_vvf(bundle_valued, DiffForm(CH2, 1, {(1,): ONE2}))
        with pytest.raises(PolyError):
            frolicher_nijenhuis(bundle_valued, self.K2)
        with pytest.raises(PolyError):
            frolicher_nijenhuis(self.K2, bundle_valued)

    def test_degree_above_dim_is_zero_of_the_right_shape(self):
        top = DiffForm(CH2, 2, {(0, 1): X2})
        K2deg = VForm(CH2, 2, 2, {((0, 1), 0): Y2})
        assert wedge_scalar(self.K2, top) == VForm.zero(CH2, 3, 2)
        assert wedge_scalar(VForm(CH2, 1, 3, {((1,), 2): X2}), top) == VForm.zero(CH2, 3, 3)
        assert interior_vvf(K2deg, top) == DiffForm.zero(CH2, 3)
        assert frolicher_nijenhuis(K2deg, self.K2) == VForm.zero(CH2, 3, 2)
        assert frolicher_nijenhuis(K2deg, K2deg) == VForm.zero(CH2, 4, 2)

    def test_insert_vector_into_degree_zero(self):
        field = VForm.section(CH2, [X2, ONE2])
        with pytest.raises(ValueError, match="degree-0 form"):
            VForm.section(CH2, [Y2, X2, ONE2]).insert_vector(field)

    def test_insert_vector_needs_a_vector_field_on_the_chart(self):
        not_fields = [VForm.section(CH2, [X2]),                # too short
                      VForm.section(CH2, [X2, Y2, ONE2]),      # too long
                      VForm.section(CH3, [ONE3, ONE3, ONE3]),  # other chart
                      self.K2]                                 # degree 1
        for X in not_fields:
            with pytest.raises(PolyError):
                self.K2.insert_vector(X)


def test_kernels_build_no_per_term_wedge(monkeypatch):
    """The bracket kernels multiply coefficient maps directly: none of them
    calls wedge, which stays public for callers that want it."""
    from lnlab import forms, gder

    def no_wedge(a, b):
        raise AssertionError("wedge called from a fused kernel")

    monkeypatch.setattr(forms, "wedge", no_wedge)
    r = VForm(CH2, 1, 2, {((0,), 0): X2, ((0,), 1): Y2, ((1,), 1): ONE2 + X2})
    s = VForm(CH2, 1, 2, {((1,), 0): X2 * Y2, ((0,), 1): ONE2})
    a = DiffForm(CH2, 1, {(0,): Y2, (1,): X2})
    P = Multivector(CH2, 1, {(0,): X2 * Y2, (1,): ONE2})
    Q = Multivector(CH2, 2, {(0, 1): X2 + Y2})
    assert not schouten(P, Q).is_zero
    assert not frolicher_nijenhuis(r, s).is_zero
    assert not interior_vvf(r, a).is_zero
    assert not wedge_scalar(r, a).is_zero
    D1, D2 = gder.build_drT(r), gder.build_drT(s)
    assert not gd_is_zero(gder.bracket(D1, D2))
    assert gder.dual(D1).r == r
