"""Generalized derivations: Leibniz rule, extension, bracket, duality, and
the constructors from endomorphisms and connections."""

import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnlab import gder
from lnlab.poly import Chart, Poly, PolyError, get_degree_limit, set_degree_limit
from lnlab.forms import (DiffForm, VForm, exterior_d, frolicher_nijenhuis,
                         interior_vvf, lie_derivative_vvf, vf_bracket)
from lnlab.gder import (FramedBundle, GenDer, bracket, build_drT,
                        build_drTstar, build_from_connection, cotangent_bundle,
                        dual, tangent_bundle)

from helpers import (CH2, CH3, gd_equal, gd_is_zero, ref_lie,
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

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_construction_from_components(self, data):
        """<D*(xi_b), u_a> = d<xi_b, l(u_a)> - <xi_b, D(u_a)>, assembled from
        one scalar form per frame pair."""
        chart = data.draw(st.sampled_from((CH2, CH3)))
        D = data.draw(st_gder(chart, data.draw(st.integers(0, 2))))
        k, rank = D.degree, D.bundle.rank
        d_out, l_out = [], []
        for b in range(rank):
            comps = []
            for a in range(rank):
                comp = -D.d_frame[a].component(b)
                if k:
                    comp = comp + exterior_d(D.l_frame[a].component(b))
                comps.append(comp)
            d_out.append(VForm.from_components(comps, k))
            if k:
                l_out.append(VForm.from_components(
                    [D.l_frame[a].component(b) for a in range(rank)], k - 1))
        Dd = dual(D)
        assert Dd.bundle == D.bundle.dual() and Dd.r == D.r
        assert Dd.d_frame == d_out and Dd.l_frame == (l_out if k else None)


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


# -- oracles for the frame route of bracket ------------------------------------
# On operands of degree at most 1 bracket reads the frame values
# (gder._frame_half).  It must equal the generic half, which extends B to
# each frame value of A and is the only route above degree 1, and a
# term-by-term expansion that uses only extend, apply_l and the
# Frolicher-Nijenhuis bracket.

POINT = Chart(())


def generic_bracket(D1: GenDer, D2: GenDer) -> GenDer:
    return gder._bracket(D1, D2, gder._extend_part, gder._extend_half)


def ref_bracket(D1: GenDer, D2: GenDer) -> GenDer:
    """On each frame section u: D2(D1 u) - (-1)^(k1 k2) D1(D2 u) and
    [D2, l1] u - (-1)^(k1 k2) [D1, l2] u, with [B, l_A] u =
    B(l_A u) - (-1)^(kB (kA - 1)) l_A(B u) (zero for A of degree 0); the
    symbol is [r1, r2]_FN."""
    bundle, k = D1.bundle, D1.degree + D2.degree
    sign = (-1) ** (D1.degree * D2.degree)

    def commutator(B: GenDer, A: GenDer, u: VForm) -> VForm:
        if A.l_frame is None:
            return bundle.zero_form(k - 1)
        return (B.extend(A.apply_l(u))
                - A.apply_l(B.extend(u)) * (-1) ** (B.degree * (A.degree - 1)))
    frame = [bundle.frame_section(a) for a in range(bundle.rank)]
    d = [D2.extend(D1.extend(u)) - D1.extend(D2.extend(u)) * sign for u in frame]
    l = ([commutator(D2, D1, u) - commutator(D1, D2, u) * sign for u in frame]
         if k else None)
    return GenDer(bundle, k, d, l, frolicher_nijenhuis(D1.r, D2.r))


@st.composite
def st_bundle_gder(draw, bundle: FramedBundle, k: int) -> GenDer:
    chart, rank = bundle.chart, bundle.rank
    d = [draw(st_vvforms(chart, k, rank)) for _ in range(rank)]
    lf = None if k == 0 else [draw(st_vvforms(chart, k - 1, rank)) for _ in range(rank)]
    return GenDer(bundle, k, d, lf, draw(st_vvforms(chart, k, chart.dim)))


class TestFrameRouteOracle:
    @pytest.mark.parametrize("degrees", [(0, 0), (0, 1), (1, 0), (1, 1)],
                             ids=lambda ks: "".join(map(str, ks)))
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_the_generic_half_and_the_expansion(self, degrees, data):
        """Ranks 1-3 on a frame that is not the tangent frame, over a point
        and over CH2 and CH3; a second operand of the same degree may be the
        first itself or an equal copy."""
        chart = data.draw(st.sampled_from((POINT, CH2, CH3)))
        bundle = FramedBundle(chart, ("e1", "e2", "e3")[:data.draw(st.integers(1, 3))])
        D1 = data.draw(st_bundle_gder(bundle, degrees[0]))
        how = data.draw(st.sampled_from(("other", "self", "copy")))
        if degrees[0] != degrees[1] or how == "other":
            D2 = data.draw(st_bundle_gder(bundle, degrees[1]))
        else:
            D2 = D1 if how == "self" else rebuilt(D1)
        got = bracket(D1, D2)
        assert got == generic_bracket(D1, D2) == ref_bracket(D1, D2)

    def test_routes_by_degree(self, monkeypatch):
        """The frame half runs exactly when both degrees are at most 1."""
        halves = []
        for name in ("_frame_half", "_extend_half"):
            def counted(*args, _fn=getattr(gder, name), _name=name):
                halves.append(_name)
                return _fn(*args)
            monkeypatch.setattr(gder, name, counted)
        D = {k: fresh_gder(CH3, k, 70 + 5 * k) for k in range(3)}
        for k1, k2 in product(range(3), repeat=2):
            halves.clear()
            bracket(D[k1], fresh_gder(CH3, k2, 90 + 5 * k2))
            route = "_frame_half" if max(k1, k2) <= 1 else "_extend_half"
            assert halves == [route, route]


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

    def test_lie_term_forms_no_product_of_degree_deg_r_plus_deg_a(self):
        """L_r a forms products of degree at most deg r + deg a - 1, where the
        route i_r da + (-1)^k d(i_r a) formed i_r a, of degree deg r + deg a,
        first: under a bound of deg r + deg a - 1 both extend and
        lie_derivative_vvf return a value."""
        r = VForm(CH2, 1, 2, {((0,), 1): X * X})  # x^2 dx (x) @y
        D = build_drT(r)
        eta = VForm(CH2, 1, 2, {((1,), 0): Y * Y})  # y^2 dy (x) @x
        alpha = eta.component(0)
        # L_r alpha = -d(x^2 y^2 dx) = 2 x^2 y dx^dy; D(@x) = 2x dx (x) @y
        expect = VForm(CH2, 2, 2, {((0, 1), 0): 2 * X * X * Y, ((0, 1), 1): -2 * X * Y * Y})
        old = get_degree_limit()
        set_degree_limit(3)
        try:
            lie = lie_derivative_vvf(r, alpha)
            ext = D.extend(eta)
        finally:
            set_degree_limit(old)
        assert lie == DiffForm(CH2, 2, {(0, 1): 2 * X * X * Y}) == ext.component(0)
        assert ext == expect == ref_extend(D, eta)

    def test_degree_above_dim_is_zero_of_the_right_shape(self):
        D = build_drT(VForm(CH2, 1, 2, {((0,), 1): X, ((1,), 0): Y}))
        eta = VForm(CH2, 2, 2, {((0, 1), 0): X * Y, ((0, 1), 1): ONE})
        assert D.extend(eta) == VForm.zero(CH2, 3, 2)


def fresh_vvform(chart: Chart, degree: int, vals: int, seed: int) -> VForm:
    """A dense vector-valued form whose coefficients are distinct objects."""
    rng = random.Random(seed)
    return VForm(chart, degree, vals, {(idx, v): rnd_poly(rng, chart) + Poly.var(chart, "x")
                                       for idx in combinations(range(chart.dim), degree)
                                       for v in range(vals)})


def fresh_gder(chart: Chart, k: int, seed: int) -> GenDer:
    return GenDer(FramedBundle(chart, E2), k,
                  [fresh_vvform(chart, k, 2, seed + a) for a in range(2)],
                  None if k == 0 else [fresh_vvform(chart, k - 1, 2, seed + 2 + a)
                                       for a in range(2)],
                  fresh_vvform(chart, k, chart.dim, seed + 4))


def test_extend_differentiates_each_coefficient_once(monkeypatch):
    """L_r a = sum_v r^v ^ d_v a + (-1)^k d r^v ^ i_v a: lie_derivative_vvf,
    extend and bracket differentiate each coefficient of a form they act on,
    and of each symbol, once per coordinate, and build neither d a, i_r a
    nor d(i_r a) as forms; lie_derivative_vvf differentiates only the r^v
    with v in an index of a, and bracket takes the symbols' FN bracket
    without frolicher_nijenhuis.  extend, and bracket on an operand of
    degree 2 (the generic half), take r^v and d r^v once per derivation per
    call; bracket on degrees at most 1 reads the frame values and takes no
    slot forms at all."""
    from lnlab import forms, gder

    def forbidden(*args, **kwargs):
        raise AssertionError("a temporary form of the i_r d + d i_r route")
    for name in ("exterior_d", "interior_vvf", "_d_into", "frolicher_nijenhuis"):
        monkeypatch.setattr(forms, name, forbidden)
        monkeypatch.setattr(gder, name, forbidden, raising=False)
    diffs: Counter = Counter()
    diff = Poly.diff

    def counted_diff(p, i):
        diffs[id(p), i] += 1
        return diff(p, i)
    monkeypatch.setattr(Poly, "diff", counted_diff)
    symbols = []
    symbol_slots = forms._symbol_slots

    def counted_slots(entries):
        symbols.append([id(p) for _, p, _ in entries])
        return symbol_slots(entries)
    for module in (forms, gder):
        monkeypatch.setattr(module, "_symbol_slots", counted_slots)

    def per_coordinate(values):
        return Counter({(id(p), i): 1 for v in values for p in v.coeffs.values()
                        for i in range(CH3.dim)})

    def ids(r):
        return [id(p) for p in r.coeffs.values()]

    D = fresh_gder(CH3, 1, 0)
    eta = fresh_vvform(CH3, 1, 2, 10)
    assert not D.extend(eta).is_zero
    assert diffs == per_coordinate([eta, D.r]) and symbols == [ids(D.r)]

    # alpha has no dx_2 term, so d K^2 ^ i_2 alpha = 0 and K^2 is not differentiated
    K = fresh_vvform(CH3, 1, 3, 40)
    alpha = DiffForm(CH3, 1, {(i,): p for (i,), p in eta.component(0).coeffs.items() if i != 2})
    used = VForm(CH3, 1, 3, {key: p for key, p in K.coeffs.items() if key[1] != 2})
    diffs.clear()
    symbols.clear()
    assert not lie_derivative_vvf(K, alpha).is_zero
    assert diffs == per_coordinate([used, alpha]) and symbols == [ids(K)]

    # each half extends the other's frame values and takes L_(r_B) r_A
    D0, E0 = fresh_gder(CH3, 0, 30), fresh_gder(CH3, 0, 60)
    D1, D2 = fresh_gder(CH3, 1, 20), fresh_gder(CH3, 2, 50)
    for pair in ((D1, D0), (D0, D1), (D0, E0), (D1, D1), (D2, D1), (D0, D2)):
        ders = list({id(D): D for D in pair}.values())
        diffs.clear()
        symbols.clear()
        assert not gd_is_zero(bracket(*pair))
        frames = [v for D in ders for v in D.d_frame + (D.l_frame or [])]
        assert diffs == per_coordinate(frames + [D.r for D in ders])
        generic = max(D.degree for D in ders) > 1
        assert sorted(symbols) == (sorted(ids(D.r) for D in ders) if generic else [])
