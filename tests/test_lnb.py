"""Dual algebroid pairs with a degree-1 derivation: the full verdict, the
induced base structure, deformations, and the holomorphic and Courant-type
special cases."""

import random

import pytest

from lnlab.poly import Chart, Poly, PolyError, parse_poly
from lnlab.forms import Multivector, VForm, nijenhuis_torsion, vf_bracket
from lnlab.gder import (FramedBundle, GenDer, bracket, build_drT, build_from_connection,
                        dual, tangent_bundle)
from lnlab.algebroid import (AlgebroidStructure, algebroid_torsion, cotangent_of_poisson,
                             deform_algebroid, tangent_algebroid)
from lnlab.lnb import (CourantOperator, LNCandidate, base_pn, check_lnb,
                       courant_operator, deform_hierarchy, holomorphic_detect)
from lnlab.pnlab import PNCandidate, check_pn

from helpers import CH2, codes_entered, frame_bracket, rnd_endo, rnd_poly

X = Poly.var(CH2, "x")
ONE = Poly.const(CH2, 1)

PI0 = Multivector(CH2, 2, {(0, 1): ONE})
ZERO_PI = Multivector(CH2, 2, {})
XID = VForm(CH2, 1, 2, {((0,), 0): X, ((1,), 1): X})
J2 = VForm(CH2, 1, 2, {((0,), 1): ONE, ((1,), 0): -ONE})
IDENT = VForm(CH2, 1, 2, {((0,), 0): ONE, ((1,), 1): ONE})
# a complex structure that is not constant, so D^r != 0
JX = VForm(CH2, 1, 2, {((0,), 0): X, ((0,), 1): ONE, ((1,), 0): -(ONE + X * X),
                       ((1,), 1): -X})


def candidate(pi: Multivector, r: VForm) -> LNCandidate:
    return LNCandidate(tangent_algebroid(CH2), cotangent_of_poisson(pi),
                       build_drT(r))


class TestCandidate:
    def test_bundle_mismatch(self):
        TM = tangent_algebroid(CH2)
        with pytest.raises(PolyError):
            LNCandidate(TM, TM, build_drT(XID))

    def test_degree_mismatch(self):
        TM = tangent_algebroid(CH2)
        D0 = GenDer(TM.bundle, 0,
                    [TM.bundle.frame_section(a) for a in range(2)],
                    None, VForm.zero(CH2, 0, 2))
        with pytest.raises(PolyError):
            LNCandidate(TM, cotangent_of_poisson(PI0), D0)


class TestVerdicts:
    def test_scaling_with_symplectic_dual(self):
        assert check_lnb(candidate(PI0, XID)).passed

    def test_rotation_with_trivial_dual(self):
        assert check_lnb(candidate(ZERO_PI, J2)).passed

    def test_rotation_with_symplectic_dual_fails(self):
        rep = check_lnb(candidate(PI0, J2))
        assert not rep.passed
        assert {i.law for i in rep.failures()} == {"dual: IM symbol square"}

    def test_swapping_the_pair_preserves_the_verdict(self):
        # (A*, A, D*) passes exactly when (A, A*, D) does
        TM = tangent_algebroid(CH2)
        swapped = LNCandidate(cotangent_of_poisson(PI0), TM,
                              dual(build_drT(XID)))
        assert check_lnb(swapped).passed

    def test_curved_connection_fails_on_the_d_part_alone(self):
        # zero anchors and brackets on a line bundle, D = -grad_{r(.)} with r = id
        # and the connection form x dy: [D, D] has the curvature as its only part
        Z, E = Poly.zero(CH2), FramedBundle(CH2, ("e1",))
        D = build_from_connection(E, [[[Z]], [[X]]], [E.zero_form(0)], IDENT)
        rep = check_lnb(LNCandidate(AlgebroidStructure(E, [[Z, Z]], {}),
                                    AlgebroidStructure(E.dual(), [[Z, Z]], {}), D))
        assert [i.law for i in rep.failures()] == ["derivation square"]
        assert rep.render_text().splitlines()[-2:] == [
            "[FAIL] derivation square  (e1)", "       defect: (-2) dx^dy (x) e1"]


class TestConstantTorsion:
    """(TM, T*M_pi, D^r) on R^4 with pi = @x1^@y1 + @x2^@y2 and an r whose
    Nijenhuis torsion is the nonzero constant
    dx1^dx2 (x) @x2 + dx1^dy2 (x) @y2 - dx2^dy2 (x) @y1.  Every IM equation
    holds, and [D^r, D^r] = 2 D^{N_r} has zero D part on the frame, so only
    its l part and its symbol show that the candidate is not Lie-Nijenhuis."""

    CH4 = Chart(("x1", "y1", "x2", "y2"))
    ROWS = [["0", "0", "1", "1"], ["0", "0", "0", "-x1 - 1"],
            ["-x1 - 1", "-1", "1", "0"], ["0", "1", "0", "1"]]

    def setup_method(self):
        ch, one = self.CH4, Poly.const(self.CH4, 1)
        self.pi = Multivector(ch, 2, {(0, 1): one, (2, 3): one})
        self.r = VForm(ch, 1, 4, {((i,), v): parse_poly(ch, row[i])
                                  for v, row in enumerate(self.ROWS) for i in range(4)})
        self.c = LNCandidate(tangent_algebroid(ch), cotangent_of_poisson(self.pi),
                             build_drT(self.r))

    def test_fails_exactly_on_the_derivation_square(self):
        rep = check_lnb(self.c)
        assert [(i.law, i.detail) for i in rep.failures()] == [
            ("derivation square", name) for name in ("@x1", "@y1", "@x2", "@y2")]
        assert [i.law for i in check_pn(PNCandidate(self.pi, self.r)).failures()] == [
            "Nijenhuis torsion N_r", "deformed bivector Poisson [pi_r,pi_r]"]

    def test_square_symbol_is_twice_the_torsion(self):
        sq = bracket(self.c.D, self.c.D)
        assert not nijenhuis_torsion(self.r).is_zero
        assert sq.r == 2 * nijenhuis_torsion(self.r)
        assert all(v.is_zero for v in sq.d_frame)

    def test_base_pn_refuses(self):
        with pytest.raises(PolyError):
            base_pn(self.c)


class TestBasePN:
    def test_recovers_the_bivector_and_symbol(self):
        cand, rep = base_pn(candidate(PI0, XID))
        assert rep.passed
        assert cand.pi.coeffs == PI0.coeffs
        assert (cand.r - XID).is_zero

    def test_requires_a_passing_candidate(self):
        with pytest.raises(PolyError):
            base_pn(candidate(PI0, J2))

    def test_scalar_multiples_round_trip(self):
        rng = random.Random(80)
        for _ in range(3):
            f = rnd_poly(rng, CH2)
            rf = VForm(CH2, 1, 2, {((0,), 0): f, ((1,), 1): f})
            cand, rep = base_pn(candidate(PI0, rf))
            assert rep.passed
            assert cand.pi.coeffs == PI0.coeffs


class TestDeformations:
    def test_deform_tangent_matches_nijenhuis_bracket(self):
        # on the coordinate frame [e_a, e_b] = 0, so the deformed bracket is
        # [r e_a, e_b] + [e_a, r e_b] and the anchor sends e_a to r e_a
        TM = tangent_algebroid(CH2)
        frames = [TM.bundle.frame_section(a) for a in range(2)]
        for r in (XID, J2, rnd_endo(random.Random(81), CH2)):
            got = deform_algebroid(TM, r.matrix())
            assert got.anchor == [r.insert_vector(u).section_components()
                                  for u in frames]
            want = (vf_bracket(r.insert_vector(frames[0]), frames[1])
                    + vf_bracket(frames[0], r.insert_vector(frames[1])))
            assert frame_bracket(got, 0, 1) == want.section_components()

    def test_torsion_report(self):
        TM = tangent_algebroid(CH2)
        assert algebroid_torsion(TM, J2.matrix()).passed
        yendo = VForm(CH2, 1, 2, {((0,), 0): Poly.var(CH2, "y")})
        assert not algebroid_torsion(TM, yendo.matrix()).passed

    def test_hierarchy_scaling_seed(self):
        members, rep = deform_hierarchy(candidate(PI0, XID), 2)
        assert rep.passed
        assert len(members) == 4
        for m in members:
            assert check_lnb(m).passed

    def test_hierarchy_rotation_seed(self):
        members, rep = deform_hierarchy(candidate(ZERO_PI, J2), 2)
        assert rep.passed
        assert len(members) == 4

    def test_hierarchy_requires_a_passing_candidate(self):
        with pytest.raises(PolyError):
            deform_hierarchy(candidate(PI0, J2), 1)


class TestHolomorphic:
    def test_rotation_is_complex(self):
        assert holomorphic_detect(candidate(ZERO_PI, J2)).passed

    def test_scaling_is_not(self):
        rep = holomorphic_detect(candidate(PI0, XID))
        assert not rep.passed
        failing = {i.law for i in rep.failures()}
        assert "r squares to minus identity" in failing
        assert "l squares to minus identity" in failing


ANTI = "derivation anticommutes with the symbol"


def anticommutation_oracle(c: LNCandidate) -> list:
    """(detail, defect) of each anticommutation item, contracted field by
    field: D_{r(d/dx_i)} u_a + l(D_{d/dx_i} u_a)."""
    fields = [tangent_bundle(CH2).frame_section(i) for i in range(2)]
    return [(f"({name};d/d{CH2.coords[i]})",
             Da.insert_vector(c.D.r.insert_vector(v)) + c.D.apply_l(Da.insert_vector(v)))
            for name, Da in zip(c.A.bundle.frame, c.D.d_frame)
            for i, v in enumerate(fields)]


class TestHolomorphicAnticommutation:
    @pytest.mark.parametrize("pi, r, passes", [(PI0, XID, False), (ZERO_PI, J2, True),
                                               (ZERO_PI, JX, True)], ids=["XID", "J2", "JX"])
    def test_defects_match_the_contraction_oracle(self, pi, r, passes):
        """Each item of M_a R + L M_a equals the field-by-field contraction;
        on XID some fail, on J2 (where D = 0) and on JX (where it is not) all
        pass."""
        c = candidate(pi, r)
        assert any(not v.is_zero for v in c.D.d_frame) == (r is not J2)
        got = [(i.detail, i.passed, i.defect) for i in holomorphic_detect(c).items
               if i.law == ANTI]
        want = [(detail, d.is_zero, None if d.is_zero else d)
                for detail, d in anticommutation_oracle(c)]
        assert got == want
        assert all(passed for _, passed, _ in got) == passes

    @pytest.mark.parametrize("pi, r", [(PI0, XID), (ZERO_PI, J2)], ids=["XID", "J2"])
    def test_contracts_no_field(self, pi, r):
        """The anticommutation law is read off frame matrices: no
        ``insert_vector`` or ``apply_l`` is entered."""
        c = candidate(pi, r)
        _, entered = codes_entered(holomorphic_detect, c)
        assert not {VForm.insert_vector.__code__, GenDer.apply_l.__code__} & entered


class TestCourant:
    def test_scaling_symbol_is_rejected(self):
        with pytest.raises(PolyError):
            courant_operator(candidate(PI0, XID))

    def test_rotation_squares_to_minus_one(self):
        op = courant_operator(candidate(ZERO_PI, J2))
        assert isinstance(op, CourantOperator)
        assert op.square_scalar == -1
        for a in range(2):
            for b in range(2):
                assert op.lstar_block[a][b] == -op.l_block[b][a]

    def test_identity_squares_to_one(self):
        op = courant_operator(candidate(PI0, IDENT))
        assert op.square_scalar == 1

    def test_unequal_diagonal_constants_are_rejected(self):
        # l = diag(1, 2): l^2 = diag(1, 4)
        r = VForm(CH2, 1, 2, {((0,), 0): ONE, ((1,), 1): 2 * ONE})
        with pytest.raises(PolyError, match="not a scalar multiple"):
            courant_operator(candidate(PI0, r))

    def test_off_diagonal_entry_is_rejected(self):
        # l = [[1, 1], [0, 1]]: l^2 = [[1, 2], [0, 1]]
        r = VForm(CH2, 1, 2, {((0,), 0): ONE, ((1,), 0): ONE, ((1,), 1): ONE})
        with pytest.raises(PolyError, match="not a scalar multiple"):
            courant_operator(candidate(PI0, r))
