"""Total-space calculus: vertical lifts, fiberwise-linear forms, and the
tangent and cotangent lifts against their classical closed formulas.

The Euler field, the linearity test and ``derivation_from_linear_fields``,
the inverse of ``linearize``, are references kept here."""

import random

import pytest

from lnlab.poly import Chart, Poly, PolyError, parse_poly
from lnlab.forms import (DiffForm, VForm, exterior_d, frolicher_nijenhuis,
                         nijenhuis_torsion, vf_bracket)
from lnlab.gder import (FramedBundle, GenDer, bracket, build_drT,
                        build_drTstar, cotangent_bundle, tangent_bundle)
from lnlab.lifts import (TotalChart, cotangent_lift, linearize, phi_up,
                         tangent_lift, v_map, vertical_lift, verify_correspondence)

from helpers import CH2, rnd_endo, rnd_one_form, rnd_poly, rnd_vf

X = Poly.var(CH2, "x")
ONE = Poly.const(CH2, 1)

XID = VForm(CH2, 1, 2, {((0,), 0): X, ((1,), 1): X})
J2 = VForm(CH2, 1, 2, {((0,), 1): ONE, ((1,), 0): -ONE})
NILP = VForm(CH2, 1, 2, {((0,), 1): X})  # x dx (x) d/dy


def rnd_gder0(rng: random.Random) -> GenDer:
    return GenDer(tangent_bundle(CH2), 0,
                  [rnd_vf(rng, CH2) for _ in range(2)], None, rnd_vf(rng, CH2))


def euler(tc: TotalChart) -> VForm:
    """The fiberwise radial vector field sum of xi^a d/dxi^a."""
    comps = [Poly.zero(tc.chart)] * tc.dim
    for a in range(tc.rank):
        comps[tc.fiber_index(a)] = Poly.coord(tc.chart, tc.fiber_index(a))
    return VForm.section(tc.chart, comps)


def is_linear(tc: TotalChart, K: VForm) -> bool:
    """A form on the total chart is fiberwise linear exactly when its Lie
    derivative along the Euler field vanishes."""
    return frolicher_nijenhuis(euler(tc), K).is_zero


def restrict(tc: TotalChart, p: Poly) -> Poly:
    """A fiberwise-constant total polynomial pushed down to the base."""
    m = tc.base_dim
    assert not any(any(e[m:]) for e in p.terms)
    return Poly(tc.bundle.chart, {e[:m]: c for e, c in p.terms.items()})


def derivation_from_linear_fields(tc: TotalChart, K: VForm,
                                  fields: list[VForm]) -> GenDer:
    """Degree-0 derivation of the linear vector field U = K(U_1, ..., U_k).

    K and each U_i live on ``tc.chart``; each U_i must be linear.  The result G
    acts on frame sections by the vertical-lift bracket, G(u)^ = [U, u^],
    and its symbol is minus the base part of U.
    """
    assert K.chart == tc.chart and len(fields) == K.degree
    assert all(is_linear(tc, X) for X in fields)
    U = K
    for X in fields:
        U = U.insert_vector(X)
    U = VForm.section(tc.chart, U.section_components())
    assert is_linear(tc, U)
    m = tc.base_dim
    d_out = []
    for a in range(tc.rank):
        up = vertical_lift(tc, tc.bundle.frame_section(a))
        comps = vf_bracket(U, up).section_components()
        assert all(p.is_zero for p in comps[:m])
        d_out.append(VForm.section(tc.bundle.chart, [restrict(tc, p) for p in comps[m:]]))
    symbol = [-restrict(tc, p) for p in U.section_components()[:m]]
    return GenDer(tc.bundle, 0, d_out, None, VForm.section(tc.bundle.chart, symbol))


def tensor(tc: TotalChart, form: DiffForm, vec: VForm) -> VForm:
    """form (x) vec on the total chart."""
    vc = vec.section_components()
    coeffs: dict = {}
    for idx, p in form.coeffs.items():
        for v in range(tc.dim):
            if vc[v].is_zero:
                continue
            q = p * vc[v]
            if not q.is_zero:
                coeffs[(idx, v)] = coeffs.get((idx, v), Poly.zero(tc.chart)) + q
    return VForm(tc.chart, form.degree, tc.dim, coeffs)


class TestTotalChart:
    def test_tangent_and_cotangent_names(self):
        assert TotalChart.of(tangent_bundle(CH2)).chart.coords == \
            ("x", "y", "vx", "vy")
        assert TotalChart.of(cotangent_bundle(CH2)).chart.coords == \
            ("x", "y", "px", "py")

    def test_generic_names(self):
        E = FramedBundle(CH2, ("e1", "e2"))
        assert TotalChart.of(E).chart.coords == ("x", "y", "xi_e1", "xi_e2")
        assert TotalChart.of(E.dual()).chart.coords == \
            ("x", "y", "xi_e1s", "xi_e2s")

    def test_colliding_fiber_names_get_a_suffix(self):
        E = FramedBundle(Chart(("x", "vx", "vx_1")), ("@x", "@vx", "@vx_1"))
        assert TotalChart.of(E).chart.coords == \
            ("x", "vx", "vx_1", "vx_2", "vvx", "vvx_1")
        lifted = TotalChart.of(tangent_bundle(CH2)).chart
        twice = TotalChart.of(tangent_bundle(lifted)).chart
        assert twice.coords == ("x", "y", "vx", "vy", "vx_1", "vy_1", "vvx", "vvy")
        assert [str(parse_poly(twice, c)) for c in twice.coords] == list(twice.coords)

    def test_pull_restrict_round_trip(self):
        rng = random.Random(71)
        tc = TotalChart.of(tangent_bundle(CH2))
        p = rnd_poly(rng, CH2)
        assert restrict(tc, tc.pull(p)) == p


class TestVerticalStructure:
    def test_vertical_lifts_commute(self):
        rng = random.Random(72)
        tc = TotalChart.of(tangent_bundle(CH2))
        u, v = rnd_vf(rng, CH2), rnd_vf(rng, CH2)
        assert vf_bracket(vertical_lift(tc, u), vertical_lift(tc, v)).is_zero

    def test_euler_weight(self):
        rng = random.Random(73)
        tc = TotalChart.of(tangent_bundle(CH2))
        up = vertical_lift(tc, rnd_vf(rng, CH2))
        assert (vf_bracket(euler(tc), up) + up).is_zero

    def test_identity_gives_euler(self):
        tc = TotalChart.of(tangent_bundle(CH2))
        bundle = tc.bundle
        K = phi_up(tc, [bundle.frame_section(a) for a in range(2)])
        assert (K - euler(tc)).is_zero


class TestLinearize:
    def test_rotation_gives_constant_form(self):
        K = linearize(build_drT(J2))
        assert K.chart == TotalChart.of(tangent_bundle(CH2)).chart
        one = Poly.const(K.chart, 1)
        expect = VForm(K.chart, 1, 4, {((0,), 1): one, ((1,), 0): -one,
                                       ((2,), 3): one, ((3,), 2): -one})
        assert (K - expect).is_zero

    def test_fiberwise_linear(self):
        rng = random.Random(74)
        for build in (build_drT, build_drTstar):
            D = build(rnd_endo(rng, CH2))
            assert is_linear(TotalChart.of(D.bundle), linearize(D))

    def test_bracket_homomorphism(self):
        rng = random.Random(75)
        D0a, D0b = rnd_gder0(rng), rnd_gder0(rng)
        D1a = build_drT(rnd_endo(rng, CH2))
        D1b = build_drT(rnd_endo(rng, CH2))
        for Da, Db in ((D0a, D0b), (D0a, D1a), (D1a, D1b)):
            lhs = frolicher_nijenhuis(linearize(Da), linearize(Db))
            rhs = linearize(bracket(Da, Db))
            assert (lhs - rhs).is_zero

    def test_rank_zero_bundle_keeps_only_the_symbol(self):
        D = GenDer(FramedBundle(CH2, ()), 0, [], None, VForm.section(CH2, [X, ONE]))
        tc = TotalChart.of(D.bundle)
        assert tc.chart == CH2
        assert linearize(D) == VForm.section(CH2, [X, ONE])
        assert phi_up(tc, []) == VForm.zero(CH2, 0, 2)


class TestCorrespondence:
    ENDOS = [("scaling", XID), ("rotation", J2), ("nilpotent", NILP)]

    def test_tangent_constructions(self):
        for _, r in self.ENDOS:
            D = build_drT(r)
            assert verify_correspondence(linearize(D), D).passed

    def test_cotangent_constructions(self):
        for _, r in self.ENDOS:
            D = build_drTstar(r)
            assert verify_correspondence(linearize(D), D).passed

    def test_mismatched_pair_fails(self):
        rep = verify_correspondence(linearize(build_drT(J2)), build_drT(XID))
        assert not rep.passed
        assert {i.law for i in rep.failures()} == {
            "vertical lift of D", "vertical lift of l", "symbol pairing"}

    def test_a_lifted_form_lifts_again(self):
        # the complete lift commutes with the Frolicher-Nijenhuis bracket, so
        # the torsion of r vanishes exactly when that of its double lift does
        torsion = VForm(CH2, 1, 2, {((0,), 0): X, ((1,), 0): ONE})  # x dx(x)@x + dy(x)@x
        for r in (XID, J2, torsion):
            twice = tangent_lift(tangent_lift(r))
            assert twice.chart.coords == ("x", "y", "vx", "vy", "vx_1", "vy_1", "vvx", "vvy")
            D = build_drT(tangent_lift(r))
            assert verify_correspondence(twice, D).passed
            assert nijenhuis_torsion(twice).is_zero == nijenhuis_torsion(r).is_zero
        assert not nijenhuis_torsion(torsion).is_zero

    def test_form_on_another_total_chart_is_rejected(self):
        # the lift of D* lives on (x, y, px, py), D's total chart is (x, y, vx, vy)
        with pytest.raises(PolyError, match="total chart"):
            verify_correspondence(linearize(build_drTstar(XID)), build_drT(XID))


class TestDerivationRoundTrip:
    def test_degree_zero_inverse_up_to_sign(self):
        rng = random.Random(76)
        D0 = rnd_gder0(rng)
        G = derivation_from_linear_fields(TotalChart.of(D0.bundle),
                                          linearize(D0), [])
        assert all((G.d_frame[a] + D0.d_frame[a]).is_zero for a in range(2))
        assert (G.r + D0.r).is_zero

    def test_degree_one_evaluation(self):
        # evaluating the lifted form on a linear field U_0 produces the
        # derivation u -> l(-D_0(u)) - D(u)(r_0) with symbol -r r_0
        rng = random.Random(77)
        D0 = rnd_gder0(rng)
        D = build_drT(rnd_endo(rng, CH2))
        tc = TotalChart.of(D.bundle)
        U0 = VForm.section(tc.chart, linearize(D0).section_components())
        G = derivation_from_linear_fields(tc, linearize(D), [U0])
        for a in range(2):
            expect = (D.apply_l(-D0.d_frame[a])
                      - D.d_frame[a].insert_vector(D0.r))
            assert (G.d_frame[a] - expect).is_zero
        assert (G.r + D.r.insert_vector(D0.r)).is_zero


class TestClassicalFormulas:
    """Decomposable endomorphisms a (x) X against the textbook lift
    formulas on TM and T*M."""

    def decomposable(self, rng):
        al = rnd_one_form(rng, CH2)
        Xf = rnd_vf(rng, CH2)
        Xc = Xf.section_components()
        r = VForm(CH2, 1, 2, {((i,), j): al.coeff((i,)) * Xc[j]
                              for i in range(2) for j in range(2)})
        return al, Xf, r

    def test_tangent_lift_of_decomposable(self):
        rng = random.Random(78)
        al, Xf, r = self.decomposable(rng)
        Xc = Xf.section_components()
        K = tangent_lift(r)
        tc = TotalChart.of(tangent_bundle(CH2))
        n = 2
        vx = [Poly.coord(tc.chart, n + i) for i in range(n)]
        # complete lift of X: base components plus velocity derivatives
        Xtg = VForm.section(
            tc.chart,
            [tc.pull(Xc[j]) for j in range(n)]
            + [sum((vx[i] * tc.pull(Xc[j].diff(i)) for i in range(n)),
                   Poly.zero(tc.chart)) for j in range(n)])
        # complete lift of al: derivative part on dx, plain part on dv
        altg = {}
        for i in range(n):
            c = sum((tc.pull(al.coeff((i,)).diff(j)) * vx[j]
                     for j in range(n)), Poly.zero(tc.chart))
            if not c.is_zero:
                altg[(i,)] = c
            if not al.coeff((i,)).is_zero:
                altg[(n + i,)] = tc.pull(al.coeff((i,)))
        oracle = (tensor(tc, tc.pull_form(al), Xtg)
                  + tensor(tc, DiffForm(tc.chart, 1, altg),
                           vertical_lift(tc, Xf)))
        assert (K - oracle).is_zero

    def test_cotangent_lift_of_decomposable(self):
        rng = random.Random(79)
        al, Xf, r = self.decomposable(rng)
        Xc = Xf.section_components()
        K = cotangent_lift(r)
        tc = TotalChart.of(cotangent_bundle(CH2))
        n = 2
        p = [Poly.coord(tc.chart, n + i) for i in range(n)]
        ellX = sum((p[i] * tc.pull(Xc[i]) for i in range(n)),
                   Poly.zero(tc.chart))
        # hamiltonian-style lift of X to T*M
        Xctg = VForm.section(
            tc.chart,
            [tc.pull(Xc[i]) for i in range(n)]
            + [-sum((p[j] * tc.pull(Xc[j].diff(i)) for j in range(n)),
                    Poly.zero(tc.chart)) for i in range(n)])
        Val = v_map(tc, VForm.section(CH2, [al.coeff((b,)) for b in range(n)]))
        dal = exterior_d(al)
        dtil = VForm(CH2, 1, n, {((i,), b): dal.coeff((b, i))
                                 for i in range(n) for b in range(n)})
        dellX = DiffForm(tc.chart, 1,
                         {(i,): ellX.diff(i) for i in range(tc.dim)})
        oracle = (tensor(tc, tc.pull_form(al), Xctg)
                  + tensor(tc, dellX, Val)
                  - v_map(tc, dtil) * ellX)
        assert (K - oracle).is_zero
