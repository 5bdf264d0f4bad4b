"""Poisson-Nijenhuis checks: concomitants, the pass/fail corpus, the
bialgebroid characterization, and the deformation hierarchy."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lnlab.poly import (Chart, GrowthLimitError, Poly, PolyError, _Sum,
                        get_degree_limit, set_degree_limit)
from lnlab.forms import (DiffForm, Multivector, VForm, lie_derivative_vvf,
                         schouten, sharp_matrix)
from lnlab.matrix import mat_mul, transpose
from lnlab.algebroid import (AlgebroidStructure, deform_algebroid,
                             tangent_algebroid)
from lnlab import forms, pnlab
from lnlab.cli import main
from lnlab.pnlab import (PNCandidate, check_pn, concomitant_C, concomitant_R,
                         concomitants, hierarchy, kosmann_equivalence, mm1_identity,
                         X_to_mv)

from helpers import (CH2, CH3, codes_entered, pairing, ref_concomitant_C, rnd_bivector,
                     rnd_endo, rnd_one_form, rnd_poly, rnd_vf, shift_lie_frames)

CH4 = Chart(("x", "y", "z", "w"))
X = Poly.var(CH2, "x")
ONE = Poly.const(CH2, 1)
ZERO = Poly.zero(CH2)

PI0 = Multivector(CH2, 2, {(0, 1): ONE})
XID = VForm(CH2, 1, 2, {((0,), 0): X, ((1,), 1): X})
J2 = VForm(CH2, 1, 2, {((0,), 1): ONE, ((1,), 0): -ONE})
IDENT = VForm(CH2, 1, 2, {((0,), 0): ONE, ((1,), 1): ONE})
SELFADJ = "selfadjoint composite r o pi#"


def selfadj_item(c: PNCandidate):
    """check_pn's item for r o pi# - pi# o r*: its defect lists the nonzero
    entries of that matrix, row by row."""
    return next(i for i in check_pn(c).items if i.law == SELFADJ)


class TestCandidate:
    def test_chart_mismatch(self):
        with pytest.raises(PolyError):
            PNCandidate(PI0, VForm(CH3, 1, 3, {}))

    def test_degree_mismatch(self):
        with pytest.raises(PolyError):
            PNCandidate(Multivector(CH2, 1, {(0,): ONE}), XID)


class TestCorpus:
    def test_scaling_pair_passes(self):
        assert check_pn(PNCandidate(PI0, XID)).passed

    def test_identity_and_zero_pass(self):
        assert check_pn(PNCandidate(PI0, IDENT)).passed
        assert check_pn(PNCandidate(PI0, VForm(CH2, 1, 2, {}))).passed

    def test_rotation_fails_selfadjointness_only(self):
        rep = check_pn(PNCandidate(PI0, J2))
        assert not rep.passed
        assert {i.law for i in rep.failures()} == {SELFADJ}
        # the diagonal of r o pi# - pi# o r* is -2, its off-diagonal zero
        two = Poly.const(CH2, 2)
        assert [i.defect for i in rep.failures()] == [[-two, -two]]

    def test_non_poisson_bivector_fails(self):
        Y3 = Poly.var(CH3, "y")
        X3 = Poly.var(CH3, "x")
        pi = Multivector(CH3, 2, {(0, 1): Y3, (1, 2): X3})
        rep = check_pn(PNCandidate(pi, VForm(CH3, 1, 3, {})))
        assert not rep.passed
        assert any(i.law == "Poisson condition [pi,pi]"
                   for i in rep.failures())


def selfadjoint_family(rng: random.Random):
    """Endomorphisms commuting with pi = d/dx ^ d/dy in dimension 3:
    block-diagonal scaling on the symplectic plane plus an arbitrary last
    column off that plane."""
    a, u, v, w = (rnd_poly(rng, CH3) for _ in range(4))
    return VForm(CH3, 1, 3, {((0,), 0): a, ((2,), 0): u,
                             ((1,), 1): a, ((2,), 1): v,
                             ((2,), 2): w})


class TestConcomitants:
    def test_family_is_selfadjoint(self):
        rng = random.Random(60)
        pi = Multivector(CH3, 2, {(0, 1): Poly.const(CH3, 1)})
        item = selfadj_item(PNCandidate(pi, selfadjoint_family(rng)))
        assert item.passed and item.defect is None

    def test_pairing_identity_under_selfadjointness(self):
        # <C(a, b), X> = <b, R(a, X)> whenever r o pi# is selfadjoint, on
        # random forms and fields and on the coframe tables of concomitants
        rng = random.Random(61)
        pi = Multivector(CH3, 2, {(0, 1): Poly.const(CH3, 1)})
        for _ in range(3):
            r = selfadjoint_family(rng)
            a, b = rnd_one_form(rng, CH3), rnd_one_form(rng, CH3)
            Xf = rnd_vf(rng, CH3)
            assert (pairing(concomitant_C(pi, r, a, b), Xf)
                    == pairing(b, concomitant_R(pi, r, a, Xf)))
            pi_r, C_table, R_table, defect = concomitants(PNCandidate(pi, r))
            assert isinstance(pi_r, Multivector)
            assert all(p.is_zero for row in defect for p in row)
            assert sorted(C_table) == [(0, 1), (0, 2), (1, 2)]
            assert sorted(R_table) == [(a, i) for a in range(3) for i in range(3)]
            for (j, k), C in C_table.items():
                assert C == concomitant_C(pi, r, DiffForm.basis(CH3, (j,)),
                                          DiffForm.basis(CH3, (k,)))
                for i in range(3):
                    assert C.coeff((i,)) == R_table[(j, i)].section_components()[k]

    def test_C_bilinear_over_constants(self):
        rng = random.Random(62)
        pi = rnd_bivector(rng, CH2)
        r = rnd_endo(rng, CH2)
        a, b, c = (rnd_one_form(rng, CH2) for _ in range(3))
        lhs = concomitant_C(pi, r, a + c, b)
        rhs = concomitant_C(pi, r, a, b) + concomitant_C(pi, r, c, b)
        assert (lhs - rhs).is_zero

    def test_C_vanishes_for_scaling_pair(self):
        rng = random.Random(63)
        a, b = rnd_one_form(rng, CH2), rnd_one_form(rng, CH2)
        assert concomitant_C(PI0, XID, a, b).is_zero

    def test_degree_limit_meets_only_formed_products(self):
        # dx and dy are closed, so C(dx, dy) forms no U and no V and so no
        # entry of r pi#; row x of r pi# holds y^3 * x, past the limit 3,
        # and is never formed
        pi = Multivector(CH2, 2, {(0, 1): X})
        Y = Poly.var(CH2, "y")
        r = VForm(CH2, 1, 2, {((0,), 0): ONE, ((1,), 0): Y * Y * Y, ((1,), 1): -ONE})
        dx, dy = DiffForm.basis(CH2, (0,)), DiffForm.basis(CH2, (1,))
        expect = concomitant_C(pi, r, dx, dy)
        old = get_degree_limit()
        try:
            set_degree_limit(3)
            got = concomitant_C(pi, r, dx, dy)
            with pytest.raises(GrowthLimitError, match="degree 4 exceeds limit 3"):
                mat_mul(r.matrix(), sharp_matrix(pi))
        finally:
            set_degree_limit(old)
        assert got == expect == ref_concomitant_C(pi, r, dx, dy)
        assert not got.is_zero

    def test_over_a_point_is_the_zero_form(self):
        """Over a chart of dimension 0 every 1-form is zero, so C is too, as
        ``check_pn`` of the same pair finds."""
        ch = Chart(())
        pi, r, a = Multivector(ch, 2, {}), VForm(ch, 1, 0, {}), DiffForm(ch, 1, {})
        got = concomitant_C(pi, r, a, a)
        assert isinstance(got, DiffForm) and got.degree == 1 and got.is_zero
        assert check_pn(PNCandidate(pi, r)).passed

    def test_degree_limit_on_non_constant_closed_forms(self):
        """On a = x dx and b = y dy the one formula forms <r*a, pi# b> =
        x^3 y, one degree above every other product of C(a, b): limit 3
        raises there, limit 4 gives the value."""
        x, y = X, Poly.var(CH2, "y")
        pi = Multivector(CH2, 2, {(0, 1): x})
        r = VForm(CH2, 1, 2, {((0,), 0): x, ((1,), 1): x + y})
        a, b = DiffForm(CH2, 1, {(0,): x}), DiffForm(CH2, 1, {(1,): y})
        old = get_degree_limit()
        try:
            set_degree_limit(3)
            with pytest.raises(GrowthLimitError, match="^monomial degree 4 exceeds limit 3$"):
                concomitant_C(pi, r, a, b)
            set_degree_limit(4)
            got = concomitant_C(pi, r, a, b)
        finally:
            set_degree_limit(old)
        assert got == DiffForm(CH2, 1, {(1,): x * x * y}) == ref_concomitant_C(pi, r, a, b)

    def test_U_is_formed_only_for_forms_that_are_not_closed(self, monkeypatch):
        calls = []
        U = pnlab._U
        monkeypatch.setattr(pnlab, "_U", lambda *args: calls.append(1) or U(*args))
        rng = random.Random(65)
        pi, r = rnd_bivector(rng, CH3), rnd_endo(rng, CH3)
        x, y = (Poly.var(CH3, c) for c in "xy")
        exact = DiffForm(CH3, 1, {(0,): y, (1,): x})  # d(x y)
        curled = DiffForm(CH3, 1, {(0,): y, (2,): x})
        assert concomitant_C(pi, r, exact, DiffForm.basis(CH3, (2,))) \
            == ref_concomitant_C(pi, r, exact, DiffForm.basis(CH3, (2,)))
        assert calls == []
        for a, b, formed in ((curled, exact, 1), (exact, curled, 1), (curled, curled, 2)):
            calls.clear()
            assert concomitant_C(pi, r, a, b) == ref_concomitant_C(pi, r, a, b)
            assert len(calls) == formed

    def test_C_rejects_non_tangent_r_and_chart_mismatch(self):
        rng = random.Random(64)
        a, b = rnd_one_form(rng, CH2), rnd_one_form(rng, CH2)
        rank3 = VForm(CH2, 1, 3, {((0,), 2): ONE, ((1,), 0): X})
        with pytest.raises(PolyError):
            concomitant_C(PI0, rank3, a, b)
        with pytest.raises(PolyError):
            concomitant_C(PI0, XID, a, rnd_one_form(rng, CH3))

    def test_C_rejects_inputs_of_the_wrong_degree(self):
        """A 2-form argument is not read as the zero 1-form, and a degree-2
        r or a 3-vector pi raises ``PolyError``."""
        x, y, z = (Poly.var(CH3, c) for c in "xyz")
        one = Poly.const(CH3, 1)
        pi = Multivector(CH3, 2, {(0, 1): z, (1, 2): x})
        r = VForm(CH3, 1, 3, {((0,), 1): y, ((1,), 1): x, ((2,), 0): one})
        a = DiffForm(CH3, 2, {(0, 1): x})
        b = DiffForm(CH3, 1, {(0,): y, (2,): x})
        bad = [(pi, r, a, b), (pi, r, b, a), (pi, r, DiffForm(CH3, 0, {(): x}), b),
               (pi, r, b, Multivector(CH3, 1, {(0,): x})),
               (pi, VForm(CH3, 2, 3, {((0, 1), 0): one}), b, b),
               (Multivector(CH3, 3, {(0, 1, 2): one}), r, b, b)]
        for args in bad:
            with pytest.raises(PolyError):
                concomitant_C(*args)
        assert concomitant_C(pi, r, b, b) == ref_concomitant_C(pi, r, b, b)


class TestMM1:
    @pytest.mark.parametrize("field", [
        XID,  # degree 1
        VForm.section(CH2, [X, ONE, X]),  # too many values
        VForm.section(CH2, [X]),  # too few values
        VForm.section(CH3, [Poly.var(CH3, v) for v in "xyz"]),  # another chart
    ], ids=["degree-1", "too-many-values", "too-few-values", "another-chart"])
    def test_refuses_a_malformed_field_before_any_work(self, monkeypatch, field):
        def no_work(*args):
            raise AssertionError("formed a prep or a bracket before checking the field")
        monkeypatch.setattr(pnlab, "_prep", no_work)
        monkeypatch.setattr(pnlab, "_lie_frames", no_work)
        with pytest.raises(PolyError, match="^mm1 identity needs a vector field on the "
                                            "candidate's chart$"):
            mm1_identity(PNCandidate(PI0, XID), field)

    def test_holds_for_random_data(self):
        """Non-selfadjoint composites r o pi# in dimensions 2 and 4, so each
        of the three (bivector, endomorphism) preps and each role enters."""
        cases = [(seed, CH2) for seed in range(100, 106)]
        cases += [(107, Chart(("x",))), (108, CH4), (109, CH4)]
        for seed, chart in cases:
            rng = random.Random(seed)
            c = PNCandidate(rnd_bivector(rng, chart), rnd_endo(rng, chart))
            if chart.dim > 1:
                assert not selfadj_item(c).passed
            assert mm1_identity(c, rnd_vf(rng, chart)).passed

    def test_holds_in_dimension_three(self):
        rng = random.Random(106)
        c = PNCandidate(rnd_bivector(rng, CH3), rnd_endo(rng, CH3))
        assert mm1_identity(c, rnd_vf(rng, CH3)).passed

    @pytest.mark.parametrize("chart", [CH2, CH3])
    def test_holds_for_a_quadratic_field(self, chart):
        """L_X dx_a = d(X^a) is exact but not constant; like dx_a it is
        closed, so no pair of the check forms U or V (``test_forms_no_U``)."""
        rng = random.Random(110 + chart.dim)
        c = PNCandidate(rnd_bivector(rng, chart), rnd_endo(rng, chart))
        x, y = (Poly.var(chart, v) for v in chart.coords[:2])
        comps = rnd_vf(rng, chart).section_components()
        Xf = VForm.section(chart, [comps[0] + x * y] + comps[1:-1] + [comps[-1] - y * y])
        assert all(any(p.total_degree() for p in
                       lie_derivative_vvf(Xf, DiffForm.basis(chart, (a,))).coeffs.values())
                   for a in (0, chart.dim - 1))
        assert mm1_identity(c, Xf).passed

    @pytest.mark.parametrize("quadratic", [False, True])
    def test_forms_no_U(self, monkeypatch, quadratic):
        """dx_a and L_X dx_a = d(X^a) are closed, so ``pnlab._U`` is never
        called, for a linear X and for a quadratic one."""
        calls = []
        U = pnlab._U
        monkeypatch.setattr(pnlab, "_U", lambda *args: calls.append(1) or U(*args))
        rng = random.Random(1450 + quadratic)
        c = PNCandidate(rnd_bivector(rng, CH3), rnd_endo(rng, CH3))
        comps = rnd_vf(rng, CH3).section_components()
        if quadratic:
            x, y, z = (Poly.var(CH3, v) for v in "xyz")
            comps = [comps[0] + x * y, comps[1] - z * z, comps[2] + x * z]
        assert max(p.total_degree() for p in comps) == 1 + quadratic
        assert mm1_identity(c, VForm.section(CH3, comps)).passed
        assert calls == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shares_preps_and_lie_derivatives(self, monkeypatch, n):
        """One sharp matrix, that of pi, and n^2 partial derivatives of X's
        components, the gradients d(X^a) = L_X dx_a, for every L_X of the
        check: [X, pi] and [X, r] are formed from pi#, r and those gradients,
        and L_X C_0 by Cartan's formula differentiates no component of X."""
        counts = {"sharp": 0, "dX": 0}

        def counted_sharp(P):
            counts["sharp"] += 1
            return sharp_matrix(P)
        diff = Poly.diff

        def counted_diff(p, i):
            if any(p is q for q in comps):
                counts["dX"] += 1
            return diff(p, i)
        rng = random.Random(1400 + n)
        chart = Chart(("x", "y", "z", "w")[:n])
        c = PNCandidate(rnd_bivector(rng, chart), rnd_endo(rng, chart))
        Xf = rnd_vf(rng, chart)
        comps = list(Xf.coeffs.values())
        assert len(comps) == n
        monkeypatch.setattr(pnlab, "sharp_matrix", counted_sharp)
        monkeypatch.setattr(Poly, "diff", counted_diff)
        assert mm1_identity(c, Xf).passed
        assert counts == {"sharp": 1, "dX": n * n}

    @pytest.mark.parametrize("quadratic", [False, True])
    def test_takes_every_lie_derivative_by_cartan(self, quadratic):
        """Neither the general kernel ``forms._lie_into`` nor its one-slot
        wrapper ``forms._on_scalar`` is entered, for a linear X and for a
        quadratic one: the forms' L_X come from ``_cartan_into``, and [X, pi]
        and [X, r] from the frame matrices (``_lie_frames``)."""
        rng = random.Random(1460 + quadratic)
        c = PNCandidate(rnd_bivector(rng, CH3), rnd_endo(rng, CH3))
        comps = rnd_vf(rng, CH3).section_components()
        if quadratic:
            x, y, z = (Poly.var(CH3, v) for v in "xyz")
            comps = [comps[0] + y * z, comps[1] - x * x, comps[2] + x * y]
        Xf = VForm.section(CH3, comps)
        report, entered = codes_entered(mm1_identity, c, Xf)
        assert report.passed
        assert {pnlab._cartan_into.__code__, pnlab._lie_frames.__code__} <= entered
        assert not {forms._lie_into.__code__, forms._on_scalar.__code__} & entered

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_enters_no_generic_bracket(self, n):
        """[X, pi] and [X, r] are read off the frame matrices the check
        holds, so neither the Schouten nor the Frolicher-Nijenhuis kernel is
        entered, nor the Lie-derivative kernels they take L_X through."""
        rng = random.Random(1470 + n)
        chart = Chart(("x", "y", "z", "w")[:n])
        c = PNCandidate(rnd_bivector(rng, chart), rnd_endo(rng, chart))
        comps = rnd_vf(rng, chart).section_components()
        comps[0] = comps[0] + Poly.coord(chart, 1) * Poly.coord(chart, n - 1)
        report, entered = codes_entered(mm1_identity, c, VForm.section(chart, comps))
        assert report.passed
        generic = {forms.schouten, forms.frolicher_nijenhuis, forms._lie_into, forms._on_scalar}
        assert not {fn.__code__ for fn in generic} & entered

    def test_degree_limit_at_the_pairing_with_X(self):
        """For pi = y @x^@y, r = x @y (x) dx + y @x (x) dy and X = x @x,
        C_0 = C(dx, dy) = x dx, and L_X C_0 = d<C_0, X> + i_X dC_0 forms
        <C_0, X> = x^2, one degree above every other product of the check:
        limit 1 raises there, limit 2 passes."""
        y = Poly.var(CH2, "y")
        c = PNCandidate(Multivector(CH2, 2, {(0, 1): y}),
                        VForm(CH2, 1, 2, {((0,), 1): X, ((1,), 0): y}))
        Xf = VForm.section(CH2, [X, ZERO])
        assert concomitant_C(c.pi, c.r, DiffForm.basis(CH2, (0,)),
                             DiffForm.basis(CH2, (1,))) == DiffForm(CH2, 1, {(0,): X})
        old = get_degree_limit()
        try:
            set_degree_limit(1)
            with pytest.raises(GrowthLimitError, match="^monomial degree 2 exceeds limit 1$"):
                mm1_identity(c, Xf)
            set_degree_limit(2)
            assert mm1_identity(c, Xf).passed
        finally:
            set_degree_limit(old)

    def test_kernel_counts_of_the_mm1_random_scene(self, monkeypatch, capsys):
        """Exact calls of the kernel's accumulator and of ``Poly.diff`` over
        ``lnlab examples run mm1-random``: one Cartan sum per coframe pair,
        closed roles with no curl, the roles under [X, pi] sharing r* with
        those under pi, [X, pi] and [X, r] summed off the frame matrices
        (below the diagonal only for [X, pi]), and curls that store only
        their nonzero entries.  The counts repeat exactly from run to run."""
        counts = dict.fromkeys(("add", "poly", "diff"), 0)
        for owner, attr in ((_Sum, "add"), (_Sum, "poly"), (Poly, "diff")):
            def counted(*args, _fn=getattr(owner, attr), _key=attr):
                counts[_key] += 1
                return _fn(*args)
            monkeypatch.setattr(owner, attr, counted)
        assert main(["examples", "run", "mm1-random", "--format", "table"]) == 0
        capsys.readouterr()
        assert counts == {"add": 2100, "poly": 417, "diff": 719}

    @pytest.mark.parametrize("n", [2, 3])
    def test_differentiates_no_constant(self, monkeypatch, n):
        """A coefficient whose degree bound is 0, such as that of dx_a, gets
        zero partials without a ``Poly.diff`` call."""
        constants = []
        diff = Poly.diff

        def counted_diff(p, i):
            if not p.total_degree():
                constants.append(p)
            return diff(p, i)
        rng = random.Random(1500 + n)
        chart = Chart(("x", "y", "z")[:n])
        c = PNCandidate(rnd_bivector(rng, chart), rnd_endo(rng, chart))
        Xf = rnd_vf(rng, chart)
        monkeypatch.setattr(Poly, "diff", counted_diff)
        assert mm1_identity(c, Xf).passed
        assert constants == []


def fractional_poly(rng: random.Random, chart: Chart, quadratic: bool = False) -> Poly:
    """An affine polynomial with coefficients over denominators 1 to 4, plus,
    if ``quadratic``, a quadratic monomial with a fractional coefficient."""
    p = rnd_poly(rng, chart) * Fraction(rng.randint(1, 5), rng.randint(1, 4))
    if quadratic and chart.dim:
        i, j = rng.randrange(chart.dim), rng.randrange(chart.dim)
        p = p + Poly.coord(chart, i) * Poly.coord(chart, j) * Fraction(rng.randint(-3, 3), 2)
    return p


class TestLieFrames:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("quadratic", [False, True])
    def test_matches_the_generic_brackets(self, n, quadratic):
        """The frame matrices of [X, pi] and [X, r] equal the sharp matrix
        of the Schouten bracket [X, pi] and the matrix of the
        Frolicher-Nijenhuis bracket [X, r], on random (pi, r, X) with
        fractional coefficients and a linear or quadratic X."""
        chart = Chart(("x", "y", "z", "w")[:n])
        for seed in range(4):
            rng = random.Random(1800 + 10 * n + 5 * quadratic + seed)
            pi = Multivector(chart, 2, {(i, j): fractional_poly(rng, chart, quadratic)
                                        for i in range(n) for j in range(i + 1, n)})
            r = VForm(chart, 1, n, {((i,), v): fractional_poly(rng, chart, quadratic)
                                    for i in range(n) for v in range(n)})
            Xc = [fractional_poly(rng, chart, quadratic) for _ in range(n)]
            Xf = VForm.section(chart, Xc)
            XS, XM = pnlab._lie_frames(chart, Xc, [x.grad() for x in Xc],
                                       sharp_matrix(pi), r.matrix())
            assert XS == sharp_matrix(schouten(X_to_mv(Xf), pi))
            assert XM == forms.frolicher_nijenhuis(Xf, r).matrix()

    @pytest.mark.parametrize("coords", [(), ("x",)], ids=["point", "line"])
    def test_point_and_line_pass_with_no_item(self, coords):
        """Over a point and on a line there is no coframe pair, so the check
        passes with no item, as it does with the generic brackets."""
        chart = Chart(coords)
        n = chart.dim
        rng = random.Random(1850 + n)
        c = PNCandidate(Multivector(chart, 2, {}), rnd_endo(rng, chart))
        report = mm1_identity(c, rnd_vf(rng, chart))
        assert report.passed and report.items == []


@st.composite
def mm1_cases(draw):
    """(candidate, X, shift) on R^2 to R^4: r o pi# not selfadjoint, X with
    affine components and, half the time, a quadratic monomial added to one
    of them, and a constant shift of [X, r] (a tangent-valued 1-form) or of
    [X, pi] (a bivector)."""
    n = draw(st.integers(2, 4))
    chart = Chart(("x", "y", "z", "w")[:n])
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    c = PNCandidate(rnd_bivector(rng, chart), rnd_endo(rng, chart))
    S, M = sharp_matrix(c.pi), c.r.matrix()
    assume(mat_mul(M, S) != mat_mul(S, transpose(M)))
    comps = rnd_vf(rng, chart).section_components()
    if draw(st.booleans()):
        k, i, j = (draw(st.integers(0, n - 1)) for _ in range(3))
        comps[k] = comps[k] + Poly.coord(chart, i) * Poly.coord(chart, j)
    const = st.integers(-2, 2).map(lambda v: Poly.const(chart, v))
    if draw(st.booleans()):
        shift = VForm(chart, 1, n, {((i,), v): draw(const) for i in range(n) for v in range(n)})
    else:
        shift = Multivector(chart, 2, {(i, j): draw(const)
                                       for i in range(n) for j in range(i + 1, n)})
    return c, VForm.section(chart, comps), shift


class TestMM1PairSum:
    @given(mm1_cases())
    @settings(max_examples=60, deadline=None)
    def test_defects_match_the_five_term_expansion(self, case):
        """Each item's defect is L_X C(a, b) - C(L_X a, b) - C(a, L_X b)
        - C_[X,pi](a, b) - C_pi,[X,r](a, b), each term formed on its own
        from the public ``concomitant_C`` and ``lie_derivative_vvf``, with
        the shifted bracket in place of [X, r] or [X, pi]."""
        c, Xf, shift = case
        chart = c.chart
        Xpi, Xr = schouten(X_to_mv(Xf), c.pi), forms.frolicher_nijenhuis(Xf, c.r)
        with pytest.MonkeyPatch.context() as mp:
            entered = shift_lie_frames(mp, lambda ch: shift)
            report = mm1_identity(c, Xf)
        assert entered == [chart]
        if isinstance(shift, VForm):
            Xr = Xr + shift
        else:
            Xpi = Xpi + shift
        C, L = concomitant_C, lie_derivative_vvf
        pairs = [(a, b) for a in range(chart.dim) for b in range(a + 1, chart.dim)]
        assert len(report.items) == len(pairs)
        for item, (a, b) in zip(report.items, pairs):
            da, db = DiffForm.basis(chart, (a,)), DiffForm.basis(chart, (b,))
            want = (L(Xf, C(c.pi, c.r, da, db)) - C(c.pi, c.r, L(Xf, da), db)
                    - C(c.pi, c.r, da, L(Xf, db)) - C(Xpi, c.r, da, db) - C(c.pi, Xr, da, db))
            assert item.detail == f"(d{chart.coords[a]},d{chart.coords[b]})"
            assert item.passed == want.is_zero
            assert item.defect == (None if want.is_zero else want)


class TestMM1Failures:
    """Exact failure oracle: C is linear in pi and in r, so a constant
    endomorphism delta added to [X, r] leaves on each coframe pair the defect
    -C(pi, delta, dx_a, dx_b), and a constant bivector beta added to [X, pi]
    the defect -C(beta, r, dx_a, dx_b); a pair where that is zero passes.
    The shift is added, as a matrix, to what ``pnlab._lie_frames`` returns,
    and each test checks that the shifted seam was entered."""

    @staticmethod
    def assert_defects(report, chart, expected):
        pairs = [(a, b) for a in range(chart.dim) for b in range(a + 1, chart.dim)]
        assert len(report.items) == len(pairs)
        for item, (a, b) in zip(report.items, pairs):
            want = -expected(DiffForm.basis(chart, (a,)), DiffForm.basis(chart, (b,)))
            assert item.detail == f"(d{chart.coords[a]},d{chart.coords[b]})"
            assert item.passed == want.is_zero
            assert item.defect == (None if want.is_zero else want)

    @pytest.mark.parametrize("chart", [CH2, CH3, CH4])
    def test_endomorphism_shift(self, monkeypatch, chart):
        n = chart.dim
        rng = random.Random(1500 + n)
        c = PNCandidate(rnd_bivector(rng, chart), rnd_endo(rng, chart))
        Xf = rnd_vf(rng, chart)
        delta = VForm(chart, 1, n, {((i,), v): Poly.const(chart, rng.randint(-3, 3))
                                    for i in range(n) for v in range(n)})
        entered = shift_lie_frames(monkeypatch, lambda ch: delta)
        report = mm1_identity(c, Xf)
        assert entered == [chart]
        self.assert_defects(report, chart, lambda a, b: concomitant_C(c.pi, delta, a, b))
        assert not report.passed

    @pytest.mark.parametrize("chart", [CH2, CH3, CH4])
    def test_bivector_shift(self, monkeypatch, chart):
        rng = random.Random(1600 + chart.dim)
        c = PNCandidate(rnd_bivector(rng, chart), rnd_endo(rng, chart))
        Xf = rnd_vf(rng, chart)
        beta = Multivector(chart, 2, {(0, 1): Poly.const(chart, 2),
                                      (0, chart.dim - 1): Poly.const(chart, -1)})
        entered = shift_lie_frames(monkeypatch, lambda ch: beta)
        report = mm1_identity(c, Xf)
        assert entered == [chart]
        self.assert_defects(report, chart, lambda a, b: concomitant_C(beta, c.r, a, b))
        assert not report.passed

    def test_shifts_that_leave_C_zero_pass(self, monkeypatch):
        """C(pi, 2 Id) = 2([a, b]_pi - [a, b]_pi - [a, b]_pi + [a, b]_pi) = 0,
        and C(beta, Id) = 0 likewise."""
        rng = random.Random(1700)
        c = PNCandidate(rnd_bivector(rng, CH3), rnd_endo(rng, CH3))
        Xf = rnd_vf(rng, CH3)
        two = VForm(CH3, 1, 3, {((i,), i): Poly.const(CH3, 2) for i in range(3)})
        with monkeypatch.context() as mp:
            entered = shift_lie_frames(mp, lambda ch: two)
            report = mm1_identity(c, Xf)
        assert entered == [CH3]
        self.assert_defects(report, CH3, lambda a, b: concomitant_C(c.pi, two, a, b))
        assert report.passed
        ident = VForm(CH3, 1, 3, {((i,), i): Poly.const(CH3, 1) for i in range(3)})
        beta = Multivector(CH3, 2, {(1, 2): Poly.const(CH3, 5)})
        entered = shift_lie_frames(monkeypatch, lambda ch: beta)
        c = PNCandidate(c.pi, ident)
        report = mm1_identity(c, Xf)
        assert entered == [CH3]
        self.assert_defects(report, CH3, lambda a, b: concomitant_C(beta, ident, a, b))
        assert report.passed


class TestKosmann:
    def test_agrees_on_passing_pair(self):
        assert kosmann_equivalence(PNCandidate(PI0, XID)).passed

    def test_agrees_on_failing_pair(self):
        rep = kosmann_equivalence(PNCandidate(PI0, J2))
        assert not rep.passed
        got = {i.law: i.passed for i in rep.items}
        assert got["deformed tangent algebroid valid"]
        assert got["cotangent algebroid valid"]
        assert not got["cocycle (deformed tangent side)"]
        assert not got["cocycle (cotangent side)"]

    def test_validates_each_algebroid_once(self, monkeypatch):
        # the cocycle runs in both orientations on the pair validated for
        # the first two items, so TM_r and T*M are validated once each
        calls = []
        validate = AlgebroidStructure.validate

        def counted(self):
            calls.append(self)
            return validate(self)
        monkeypatch.setattr(AlgebroidStructure, "validate", counted)
        for r in (XID, J2):
            calls.clear()
            kosmann_equivalence(PNCandidate(PI0, r))
            assert len(calls) == 2

    def test_a_passing_cocycle_is_formed_once(self, monkeypatch):
        # the swapped pair's {mu, gamma} is the same function with xi and
        # theta exchanged: a passing side serves both, a failing one is
        # recomputed so that each side counts its own failing pairs
        calls = []
        cocycle = pnlab._cocycle

        def counted(A, B):
            calls.append((A.bundle.frame, B.bundle.frame))
            return cocycle(A, B)
        monkeypatch.setattr(pnlab, "_cocycle", counted)
        assert kosmann_equivalence(PNCandidate(PI0, XID)).passed
        assert calls == [(("@x", "@y"), ("dx", "dy"))]
        calls.clear()
        rep = kosmann_equivalence(PNCandidate(PI0, J2))
        assert calls == [(("@x", "@y"), ("dx", "dy")), (("dx", "dy"), ("@x", "@y"))]
        got = {i.law: i.detail for i in rep.failures()}
        tmr, ctg = (pnlab.deform_algebroid(pnlab.tangent_algebroid(CH2), J2.matrix()),
                    pnlab.cotangent_of_poisson(PI0))
        assert got == {
            "cocycle (deformed tangent side)": f"{len(cocycle(tmr, ctg).failures())} failing pairs",
            "cocycle (cotangent side)": f"{len(cocycle(ctg, tmr).failures())} failing pairs"}

    def test_requires_poisson(self):
        Y3 = Poly.var(CH3, "y")
        X3 = Poly.var(CH3, "x")
        pi = Multivector(CH3, 2, {(0, 1): Y3, (1, 2): X3})
        with pytest.raises(PolyError):
            kosmann_equivalence(PNCandidate(pi, VForm(CH3, 1, 3, {})))

    def test_deformed_tangent_validity_tracks_torsion(self):
        TM = tangent_algebroid(CH2)
        assert deform_algebroid(TM, XID.matrix()).validate().passed
        yendo = VForm(CH2, 1, 2, {((0,), 0): Poly.var(CH2, "y")})
        assert not deform_algebroid(TM, yendo.matrix()).validate().passed


class TestHierarchy:
    def test_scaling_ladder(self):
        out, rep = hierarchy(PNCandidate(PI0, XID), 2)
        assert rep.passed
        assert out[0].coeffs == {(0, 1): ONE}
        assert out[1].coeffs == {(0, 1): X}
        assert out[2].coeffs == {(0, 1): X * X}

    def test_members_pairwise_compatible(self):
        out, _ = hierarchy(PNCandidate(PI0, XID), 3)
        for p in out:
            for q in out:
                assert schouten(p, q).is_zero

    def test_rejects_non_pn_pair(self):
        with pytest.raises(PolyError):
            hierarchy(PNCandidate(PI0, J2), 1)
