"""Generalized derivations: Leibniz rule, extension, bracket, duality, and
the constructors from endomorphisms and connections."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnlab.poly import Chart, Poly, PolyError
from lnlab.forms import (DiffForm, VForm, exterior_d, frolicher_nijenhuis,
                         interior_vvf, lie_derivative_vvf, vf_bracket)
from lnlab.gder import (FramedBundle, GenDer, bracket, build_drT,
                        build_drTstar, build_from_connection, cotangent_bundle,
                        dual, tangent_bundle)

from helpers import (CH2, CH3, gd_equal, gd_is_zero, ref_interior_vvf,
                     ref_wedge_scalar, rnd_endo, rnd_poly, rnd_vf, rnd_vvform, st_vvforms)

X = Poly.var(CH2, "x")
Y = Poly.var(CH2, "y")
ONE = Poly.const(CH2, 1)
TM = tangent_bundle(CH2)


def rnd_gder(rng: random.Random, bundle: FramedBundle, degree: int) -> GenDer:
    chart, rank, n = bundle.chart, bundle.rank, bundle.chart.dim
    if degree == 0:
        return GenDer(bundle, 0,
                      [VForm.section(chart, [rnd_poly(rng, chart) for _ in range(rank)])
                       for _ in range(rank)],
                      None,
                      VForm.section(chart, [rnd_poly(rng, chart) for _ in range(n)]))
    d = [VForm(chart, 1, rank, {((i,), v): rnd_poly(rng, chart)
                                for i in range(n) for v in range(rank)})
         for _ in range(rank)]
    l = [VForm.section(chart, [rnd_poly(rng, chart) for _ in range(rank)])
         for _ in range(rank)]
    r = VForm(chart, 1, n, {((i,), v): rnd_poly(rng, chart)
                            for i in range(n) for v in range(n)})
    return GenDer(bundle, 1, d, l, r)


class TestFramedBundle:
    def test_tangent_cotangent_duality(self):
        assert TM.dual() == cotangent_bundle(CH2)
        assert cotangent_bundle(CH2).dual() == TM

    def test_generic_duality_round_trip(self):
        E = FramedBundle(CH2, ("e1", "e2"))
        assert E.dual().frame == ("e1*", "e2*")
        assert E.dual().dual() == E

    def test_frame_section(self):
        s = TM.frame_section(1)
        assert s.section_components() == [Poly.zero(CH2), ONE]


class TestShapes:
    def test_degree_zero_has_no_l(self):
        with pytest.raises(PolyError):
            GenDer(TM, 0, [TM.zero_form(0)] * 2,
                   [TM.zero_form(0)] * 2, VForm.zero(CH2, 0, 2))

    def test_degree_one_requires_l(self):
        with pytest.raises(PolyError):
            GenDer(TM, 1, [TM.zero_form(1)] * 2, None, VForm.zero(CH2, 1, 2))

    def test_symbol_shape(self):
        with pytest.raises(PolyError):
            GenDer(TM, 1, [TM.zero_form(1)] * 2, [TM.zero_form(0)] * 2,
                   VForm.zero(CH2, 0, 2))


def leibniz_defect(D: GenDer, f: Poly, section: VForm) -> VForm:
    """D(f u) - f D(u) - df ^ l(u) + <df, r> (x) u, zero for every derivation."""
    df = exterior_d(DiffForm(f.chart, 0, {(): f}))
    defect = D.extend(section * f) - D.extend(section) * f
    if D.l_frame is not None:
        defect = defect - ref_wedge_scalar(df, D.apply_l(section))
    rdf = interior_vvf(D.r, df)
    return defect + VForm.from_components(
        [rdf * g for g in section.section_components()], D.degree)


class TestLeibniz:
    def test_defect_vanishes(self):
        rng = random.Random(30)
        for degree in (0, 1):
            D = rnd_gder(rng, TM, degree)
            f = rnd_poly(rng, CH2)
            u = VForm.section(CH2, [rnd_poly(rng, CH2), rnd_poly(rng, CH2)])
            assert leibniz_defect(D, f, u).is_zero

    def test_linear_over_sums(self):
        rng = random.Random(31)
        D = rnd_gder(rng, TM, 1)
        u, v = rnd_vf(rng, CH2), rnd_vf(rng, CH2)
        assert (D.extend(u + v) - D.extend(u) - D.extend(v)).is_zero


class TestExtension:
    def test_drT_extension_is_fn_bracket(self):
        rng = random.Random(32)
        r = rnd_endo(rng, CH2)
        D = build_drT(r)
        eta = rnd_vvform(rng, CH2, 1)
        assert (D.extend(eta) - frolicher_nijenhuis(eta, r)).is_zero

    BUNDLES = (TM, FramedBundle(CH2, ("e1", "e2", "e3")))

    def test_extension_on_frame_is_d_frame(self):
        rng = random.Random(33)
        for bundle in self.BUNDLES:
            for degree in (0, 1):
                D = rnd_gder(rng, bundle, degree)
                for a in range(bundle.rank):
                    assert D.extend(bundle.frame_section(a)) == D.d_frame[a]

    def test_l_on_frame_is_l_frame(self):
        rng = random.Random(44)
        for bundle in self.BUNDLES:
            D = rnd_gder(rng, bundle, 1)
            for a in range(bundle.rank):
                assert D.apply_l(bundle.frame_section(a)) == D.l_frame[a]

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_l_is_function_linear_on_valued_forms(self, data):
        # l(sum_a alpha_a (x) u_a) = sum_a alpha_a ^ l(u_a)
        chart = data.draw(st.sampled_from((CH2, CH3)))
        D = data.draw(st_gder(chart, data.draw(st.integers(1, 2))))
        eta = data.draw(st_vvforms(chart, data.draw(st.integers(1, 2)), 2))
        expect = D.bundle.zero_form(eta.degree + D.degree - 1)
        for a in range(2):
            expect = expect + ref_wedge_scalar(eta.component(a), D.l_frame[a])
        assert D.apply_l(eta) == expect


class TestOutsideTheBundle:
    # x id on TM over (x, y); the arguments have too many value slots, too
    # few, or live on another chart
    D = build_drT(VForm(CH2, 1, 2, {((0,), 0): X, ((1,), 1): X}))
    ARGS = (VForm.section(CH2, [ONE, X, Y]), VForm.section(CH2, [ONE]),
            VForm.section(CH3, [Poly.const(CH3, 1)] * 2))

    @pytest.mark.parametrize("eta", ARGS, ids=("rank3", "rank1", "chart"))
    def test_apply_l_rejects(self, eta):
        with pytest.raises(PolyError):
            self.D.apply_l(eta)

    @pytest.mark.parametrize("eta", ARGS, ids=("rank3", "rank1", "chart"))
    def test_extend_rejects(self, eta):
        with pytest.raises(PolyError):
            self.D.extend(eta)


class TestBracket:
    def test_tangent_homomorphism(self):
        rng = random.Random(34)
        for _ in range(5):
            r1, r2 = rnd_endo(rng, CH2), rnd_endo(rng, CH2)
            lhs = bracket(build_drT(r1), build_drT(r2))
            rhs = build_drT(frolicher_nijenhuis(r1, r2))
            assert gd_equal(lhs, rhs)

    def test_graded_antisymmetry_mixed(self):
        rng = random.Random(35)
        D0 = rnd_gder(rng, TM, 0)
        D1 = rnd_gder(rng, TM, 1)
        assert gd_equal(bracket(D0, D1), -bracket(D1, D0))

    @pytest.mark.parametrize("bundle", [TM, FramedBundle(CH3, ("e1", "e2"))],
                             ids=["TM", "rank2-over-CH3"])
    @pytest.mark.parametrize("degrees", list(product((0, 1), repeat=3)),
                             ids=lambda ks: "".join(map(str, ks)))
    def test_graded_jacobi(self, bundle, degrees):
        # [D1,[D2,D3]] = [[D1,D2],D3] + (-1)^(k1 k2) [D2,[D1,D3]] holds for
        # any graded Lie bracket, whatever signs its definition carries
        k1, k2, k3 = degrees
        rng = random.Random(46 + 4 * k1 + 2 * k2 + k3)
        D1, D2, D3 = (rnd_gder(rng, bundle, k) for k in degrees)
        lhs = bracket(D1, bracket(D2, D3))
        p, q = bracket(bracket(D1, D2), D3), bracket(D2, bracket(D1, D3))
        assert not (gd_is_zero(lhs) or gd_is_zero(p) or gd_is_zero(q))
        sign = (-1) ** (k1 * k2)

        def parts(D):
            return D.d_frame + (D.l_frame or []) + [D.r]
        for x, y, z in zip(parts(lhs), parts(p), parts(q), strict=True):
            assert x == y + z * sign


class TestDual:
    def test_involution(self):
        rng = random.Random(36)
        for degree in (0, 1):
            D = rnd_gder(rng, TM, degree)
            dd = dual(dual(D))
            assert dd.bundle == D.bundle
            assert gd_equal(dd, D)

    def test_pairing_identity(self):
        # <D*(phi), u> = d<phi, l(u)> - <phi, D(u)> on frame pairs
        rng = random.Random(37)
        D = rnd_gder(rng, TM, 1)
        Dd = dual(D)
        for a in range(2):
            for b in range(2):
                lhs = Dd.d_frame[b].component(a)
                rhs = (exterior_d(D.l_frame[a].component(b))
                       - D.d_frame[a].component(b))
                assert lhs == rhs

    def test_dual_of_tangent_is_cotangent(self):
        rng = random.Random(38)
        r = rnd_endo(rng, CH2)
        Dd = dual(build_drT(r))
        Ds = build_drTstar(r)
        assert Dd.bundle == Ds.bundle
        assert gd_equal(Dd, Ds)

    def test_bracket_homomorphism(self):
        rng = random.Random(39)
        D1 = rnd_gder(rng, TM, 0)
        D2 = rnd_gder(rng, TM, 1)
        assert gd_equal(dual(bracket(D1, D2)), bracket(dual(D1), dual(D2)))


class TestConstructors:
    def test_drT_degree_one_formula(self):
        rng = random.Random(40)
        r = rnd_endo(rng, CH2)
        D = build_drT(r)
        Xf, Yf = rnd_vf(rng, CH2), rnd_vf(rng, CH2)
        lhs = D.extend(Yf).insert_vector(Xf)
        rhs = (vf_bracket(Yf, r.insert_vector(Xf))
               - r.insert_vector(vf_bracket(Yf, Xf)))
        assert (lhs - rhs).is_zero

    def test_drTstar_degree_one_formula(self):
        # D_X(dx_b) = L_X(dx_b o r) - L_{rX}(dx_b); tensorial in X
        rng = random.Random(41)
        r = rnd_endo(rng, CH2)
        D = build_drTstar(r)
        Xf = rnd_vf(rng, CH2)
        rm = r.matrix()
        for b in range(2):
            a = DiffForm.basis(CH2, (b,))
            ar = DiffForm(CH2, 1, {(i,): rm[b][i] for i in range(2)})
            expect = (lie_derivative_vvf(Xf, ar)
                      - lie_derivative_vvf(r.insert_vector(Xf), a))
            got = D.d_frame[b].insert_vector(Xf).section_components()
            assert all((expect.coeff((v,)) - got[v]).is_zero for v in range(2))

    def test_connection_degree_one_formula(self):
        rng = random.Random(43)
        bundle = FramedBundle(CH2, ("e1", "e2"))
        gamma = [[[rnd_poly(rng, CH2) for _ in range(2)] for _ in range(2)]
                 for _ in range(2)]
        lf = [VForm.section(CH2, [rnd_poly(rng, CH2), rnd_poly(rng, CH2)])
              for _ in range(2)]
        r = rnd_endo(rng, CH2)
        D = build_from_connection(bundle, gamma, lf, r)
        rm = r.matrix()
        for a in range(2):
            for i in range(2):
                nab = [gamma[i][b][a] for b in range(2)]
                lv = [Poly.zero(CH2)] * 2
                for b in range(2):
                    comp = lf[b].section_components()
                    for c in range(2):
                        lv[c] = lv[c] + nab[b] * comp[c]
                grad = [Poly.zero(CH2)] * 2
                for j in range(2):
                    for b in range(2):
                        grad[b] = grad[b] + rm[j][i] * gamma[j][b][a]
                expect = [l - g for l, g in zip(lv, grad)]
                d_i = TM.frame_section(i)
                got = D.d_frame[a].insert_vector(d_i).section_components()
                assert all((e - g).is_zero for e, g in zip(expect, got))
        f = rnd_poly(rng, CH2)
        u = VForm.section(CH2, [rnd_poly(rng, CH2), rnd_poly(rng, CH2)])
        assert leibniz_defect(D, f, u).is_zero

    # rank 3 over CH2: D_(X1..Xk)(u) = sum_i (-1)^(i+1) l_(X1..^Xi..Xk)(grad_Xi u)
    #                                  - grad_(r(X1..Xk)) u
    E3 = FramedBundle(CH2, ("e1", "e2", "e3"))

    @staticmethod
    def rnd_gamma(rng):
        return [[[rnd_poly(rng, CH2) for _ in range(3)] for _ in range(3)]
                for _ in range(2)]

    @staticmethod
    def grad(gamma, vec, a):
        """grad_X u_a for the vector field with components ``vec``."""
        return [sum((vec[i] * gamma[i][b][a] for i in range(2)), Poly.zero(CH2))
                for b in range(3)]

    def check_leibniz(self, rng, D):
        f = rnd_poly(rng, CH2)
        u = VForm.section(CH2, [rnd_poly(rng, CH2) for _ in range(3)])
        assert leibniz_defect(D, f, u).is_zero

    def test_connection_rejects_misshapen_gamma(self):
        # one matrix per chart coordinate, each rank x rank
        lf = [self.E3.frame_section(a) for a in range(3)]
        r = VForm(CH2, 1, 2, {})
        Z = Poly.zero(CH2)
        square = [[Z] * 3] * 3
        for gamma in ([square], [square, square[:2]], [square, [[Z] * 2] * 3]):
            with pytest.raises(PolyError, match="gamma"):
                build_from_connection(self.E3, gamma, lf, r)

    def test_connection_degree_zero_formula(self):
        # D(u) = -grad_r u
        rng = random.Random(44)
        gamma, r = self.rnd_gamma(rng), rnd_vf(rng, CH2)
        D = build_from_connection(self.E3, gamma, [], r)
        assert D.l_frame is None and D.r == r
        for a in range(3):
            expect = [-g for g in self.grad(gamma, r.section_components(), a)]
            assert D.d_frame[a].section_components() == expect
        self.check_leibniz(rng, D)

    def test_connection_degree_two_formula(self):
        # D_(X1,X2)(u) = l_X2(grad_X1 u) - l_X1(grad_X2 u) - grad_(r(X1,X2)) u
        rng = random.Random(45)
        gamma = self.rnd_gamma(rng)
        lf = [VForm(CH2, 1, 3, {((i,), c): rnd_poly(rng, CH2)
                                for i in range(2) for c in range(3)})
              for _ in range(3)]
        r = VForm(CH2, 2, 2, {((0, 1), v): rnd_poly(rng, CH2) for v in range(2)})
        D = build_from_connection(self.E3, gamma, lf, r)
        unit = [TM.frame_section(i) for i in range(2)]

        def l_at(X, w):
            # l_X applied to the section with components w
            out = [Poly.zero(CH2)] * 3
            for b in range(3):
                lb = lf[b].insert_vector(X).section_components()
                out = [o + w[b] * p for o, p in zip(out, lb)]
            return out

        for a in range(3):
            for i, j in ((0, 1), (1, 0)):
                X1, X2 = unit[i], unit[j]
                g1 = self.grad(gamma, X1.section_components(), a)
                g2 = self.grad(gamma, X2.section_components(), a)
                rX = r.insert_vector(X1).insert_vector(X2).section_components()
                expect = [p - q - s for p, q, s in
                          zip(l_at(X2, g1), l_at(X1, g2), self.grad(gamma, rX, a))]
                got = D.d_frame[a].insert_vector(X1).insert_vector(X2)
                assert got.section_components() == expect
        self.check_leibniz(rng, D)


# -- oracle for the fused extension ------------------------------------------
# The reference applies the defining formula to one decomposable at a time,
# using only wedge, interior_vector, exterior_d, DiffForm.basis and the
# container's + and scaling.

E2 = ("e1", "e2")


def ref_lie(K: VForm, a: DiffForm) -> DiffForm:
    """L_K a = i_K da - (-1)^(k-1) d i_K a."""
    first = ref_interior_vvf(K, exterior_d(a))
    if a.degree == 0:
        return first
    second = exterior_d(ref_interior_vvf(K, a))
    return first + second if (K.degree - 1) % 2 else first - second


def ref_extend(D: GenDer, eta: VForm, lie=ref_lie) -> VForm:
    """D(a (x) u) = a ^ D(u) + (-1)^j da ^ l(u) - (-1)^(j k) (L_r a) (x) u,
    with L_r a from ``lie``."""
    chart, k, j, rank = D.bundle.chart, D.degree, eta.degree, D.bundle.rank
    out = D.bundle.zero_form(j + k)
    for (idx, a), p in eta.coeffs.items():
        alpha = DiffForm.basis(chart, idx) * p
        out = out + ref_wedge_scalar(alpha, D.d_frame[a])
        if D.l_frame is not None:
            out = out + ref_wedge_scalar(exterior_d(alpha), D.l_frame[a]) * (-1) ** j
        slots = [DiffForm.zero(chart, j + k)] * rank
        slots[a] = lie(D.r, alpha) * -((-1) ** (j * k))
        out = out + VForm.from_components(slots, j + k)
    return out


@st.composite
def st_gder(draw, chart: Chart, k: int) -> GenDer:
    bundle = FramedBundle(chart, E2)
    d = [draw(st_vvforms(chart, k, 2)) for _ in range(2)]
    lf = None if k == 0 else [draw(st_vvforms(chart, k - 1, 2)) for _ in range(2)]
    return GenDer(bundle, k, d, lf, draw(st_vvforms(chart, k, chart.dim)))


class TestFusedExtensionOracle:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_extend_matches_decomposable_expansion(self, data):
        chart = data.draw(st.sampled_from((CH2, CH3)))
        D = data.draw(st_gder(chart, data.draw(st.integers(0, 2))))
        eta = data.draw(st_vvforms(chart, data.draw(st.integers(0, 3)), 2))
        expect = ref_extend(D, eta)
        assert D.extend(eta) == expect == ref_extend(D, eta, lie_derivative_vvf)


def rebuilt(D: GenDer) -> GenDer:
    """An equal copy of D that shares no object with it."""
    def copy(v):
        return VForm(v.chart, v.degree, v.vals, dict(v.coeffs))
    return GenDer(D.bundle, D.degree, [copy(v) for v in D.d_frame],
                  None if D.l_frame is None else [copy(v) for v in D.l_frame], copy(D.r))


class TestSelfBracketOracle:
    """[D, D] forms D o D once (twice its value for odd degree, nothing for
    even degree); an equal copy takes the two-half path."""

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_self_bracket_matches_equal_copy(self, data):
        chart = data.draw(st.sampled_from((CH2, CH3)))
        D = data.draw(st_gder(chart, data.draw(st.integers(0, 2))))
        square = bracket(D, D)
        assert square == bracket(D, rebuilt(D)) == bracket(rebuilt(D), D)
        assert gd_is_zero(square) or D.degree % 2


class TestDrTOracle:
    def test_frame_values_are_fn_brackets_with_frame_fields(self):
        # D(d/dx_a) = d_a r coefficient by coefficient, against [d/dx_a, r]_FN
        for seed, chart, k in product(range(18), (CH2, CH3), range(4)):
            r = rnd_vvform(random.Random(seed), chart, k)
            D = build_drT(r)
            for a in range(chart.dim):
                e_a = D.bundle.frame_section(a)
                assert D.d_frame[a] == frolicher_nijenhuis(e_a, r)


class TestExtensionErrorContract:
    def test_eta_from_another_bundle(self):
        D = build_drT(VForm(CH2, 1, 2, {((0,), 1): X}))
        with pytest.raises(PolyError):
            D.extend(VForm(CH2, 1, 3, {((0,), 2): X}))
        with pytest.raises(PolyError):
            D.extend(VForm(CH3, 1, 2, {((0,), 1): Poly.var(CH3, "x")}))

    def test_degree_above_dim_is_zero_of_the_right_shape(self):
        D = build_drT(VForm(CH2, 1, 2, {((0,), 1): X, ((1,), 0): Y}))
        eta = VForm(CH2, 2, 2, {((0, 1), 0): X * Y, ((0, 1), 1): ONE})
        assert D.extend(eta) == VForm.zero(CH2, 3, 2)


def test_extend_takes_each_exterior_derivative_once(monkeypatch):
    """Per value slot, extend takes da once for the l-term and L_r a, and
    d(i_r a) once more when a has positive degree.  Every d pass, whether
    finished by ``exterior_d`` or added straight into the result, goes
    through ``forms._d_into``."""
    from lnlab import forms, gder
    D = build_drT(VForm(CH2, 1, 2, {((0,), 0): X, ((1,), 0): Y, ((1,), 1): ONE}))
    calls = []
    d_into = forms._d_into

    def counted(out, a, *args):
        calls.append(a)
        d_into(out, a, *args)
    monkeypatch.setattr(forms, "_d_into", counted)
    monkeypatch.setattr(gder, "_d_into", counted)
    for eta, expected in ((VForm.section(CH2, [X * Y, X + ONE]), 2),
                          (VForm(CH2, 1, 2, {((0,), 0): Y, ((1,), 1): X * X}), 4)):
        calls.clear()
        assert not D.extend(eta).is_zero
        assert len(calls) == expected
