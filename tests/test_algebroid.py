"""Anchored brackets in a frame: validation, duals, deformations, and the
compatibility equations with a degree-1 derivation."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnlab.poly import (Chart, GrowthLimitError, Poly, PolyError, get_degree_limit,
                        set_degree_limit)
from lnlab.forms import Multivector, VForm, vf_bracket
from lnlab.gder import (FramedBundle, GenDer, build_drT, build_drTstar,
                        build_from_connection, dual)
from lnlab import algebroid
from lnlab.algebroid import (AlgebroidStructure, FrameBivector, _big_bracket, _cocycle,
                             _hamiltonian, algebroid_torsion, check_bialgebroid, check_im,
                             cotangent_of_poisson, deform_algebroid, tangent_algebroid)
from lnlab.catalog import example_names, example_source
from lnlab.report import CheckReport
from lnlab.scene import parse_scene

from helpers import (CH2, CH3, anchor_of, derivative, frame_bracket, ref_check_im, ref_deform,
                     ref_torsion, ref_validate, rnd_endo, rnd_poly, rnd_vf, section_bracket)

X = Poly.var(CH2, "x")
Y = Poly.var(CH2, "y")
ONE = Poly.const(CH2, 1)
ZERO = Poly.zero(CH2)

XID = VForm(CH2, 1, 2, {((0,), 0): X, ((1,), 1): X})
J2 = VForm(CH2, 1, 2, {((0,), 1): ONE, ((1,), 0): -ONE})
PI0 = Multivector(CH2, 2, {(0, 1): ONE})


def aff2_pair():
    """Rank-2 bundle with zero anchor, [e1,e2] = e2, and its classical dual."""
    E = FramedBundle(CH2, ("e1", "e2"))
    zrow = [[ZERO, ZERO], [ZERO, ZERO]]
    A = AlgebroidStructure(E, zrow, {(0, 1): [ZERO, ONE]})
    Astar = AlgebroidStructure(E.dual(), zrow, {(0, 1): [ZERO, -ONE]})
    return A, Astar


class TestValidate:
    def test_tangent_passes(self):
        assert tangent_algebroid(CH3).validate().passed

    def test_cotangent_of_poisson_passes(self):
        Z3 = Poly.var(CH3, "z")
        X3 = Poly.var(CH3, "x")
        pi = Multivector(CH3, 2, {(0, 1): Z3, (1, 2): X3})
        ctg = cotangent_of_poisson(pi)
        assert not ctg.pre_lie_only
        assert ctg.validate().passed

    def test_non_poisson_is_flagged(self):
        Y3 = Poly.var(CH3, "y")
        X3 = Poly.var(CH3, "x")
        pi = Multivector(CH3, 2, {(0, 1): Y3, (1, 2): X3})
        ctg = cotangent_of_poisson(pi)
        assert ctg.pre_lie_only

    def test_rank3_jacobi_failure(self):
        # [e1,e2]=e3, [e2,e3]=e1, [e1,e3]=-e1 with zero anchor: the cyclic
        # sum on (e1,e2,e3) is e3, so Jacobi fails there and only there
        ch = Chart(("t",))
        z, o = Poly.zero(ch), Poly.const(ch, 1)
        E = FramedBundle(ch, ("e1", "e2", "e3"))
        A = AlgebroidStructure(E, [[z]] * 3,
                               {(0, 1): [z, z, o], (1, 2): [o, z, z],
                                (0, 2): [-o, z, z]})
        rep = A.validate()
        assert not rep.passed
        assert [(i.law, i.detail) for i in rep.failures()] == [
            ("Jacobi identity", "(e1,e2,e3)")]

    def test_shape_errors(self):
        E = FramedBundle(CH2, ("e1", "e2"))
        with pytest.raises(PolyError):
            AlgebroidStructure(E, [[ZERO, ZERO]], {})
        with pytest.raises(PolyError):
            AlgebroidStructure(E, [[ZERO, ZERO]] * 2, {(1, 0): [ZERO, ZERO]})


class TestSectionBracket:
    def test_leibniz_in_second_slot(self):
        rng = random.Random(50)
        A = tangent_algebroid(CH2)
        s, t = rnd_vf(rng, CH2), rnd_vf(rng, CH2)
        f = rnd_poly(rng, CH2)
        lhs = section_bracket(A, s, t * f)
        rho_s = anchor_of(A, s).section_components()
        df = sum((rho_s[i] * f.diff(i) for i in range(2)), ZERO)
        rhs = section_bracket(A, s, t) * f + t * df
        assert (lhs - rhs).is_zero

    def test_tangent_bracket_is_vf_bracket(self):
        rng = random.Random(51)
        A = tangent_algebroid(CH2)
        s, t = rnd_vf(rng, CH2), rnd_vf(rng, CH2)
        assert (section_bracket(A, s, t) - vf_bracket(s, t)).is_zero

    def test_antisymmetry(self):
        rng = random.Random(52)
        pi = Multivector(CH2, 2, {(0, 1): rnd_poly(rng, CH2)})
        A = cotangent_of_poisson(pi)
        s, t = rnd_vf(rng, CH2), rnd_vf(rng, CH2)
        assert (section_bracket(A, s, t) + section_bracket(A, t, s)).is_zero


class TestBialgebroid:
    def test_aff2_pair_passes(self):
        A, Astar = aff2_pair()
        assert check_bialgebroid(A, Astar).passed

    def test_modified_cobracket_still_cocycle(self):
        # replacing the dual bracket by [e1*,e2*] = -e1* keeps the cocycle
        # condition: the induced delta kills e1 and both Lie terms vanish
        A, _ = aff2_pair()
        pert = AlgebroidStructure(A.bundle.dual(), [[ZERO, ZERO]] * 2,
                                  {(0, 1): [-ONE, ZERO]})
        assert pert.validate().passed
        assert check_bialgebroid(A, pert).passed

    def test_every_constant_cobracket_is_cocycle(self):
        # in rank 2 with zero anchor, ad_x acts on the line of bivectors by
        # tr(ad_x), so [e1*,e2*] = a e1* + b e2* satisfies the cocycle
        # condition for every a, b
        A, _ = aff2_pair()
        for a in range(-2, 3):
            for b in range(-2, 3):
                cab = [Poly.const(CH2, a), Poly.const(CH2, b)]
                Astar = AlgebroidStructure(A.bundle.dual(),
                                           [[ZERO, ZERO]] * 2, {(0, 1): cab})
                assert check_bialgebroid(A, Astar).passed, (a, b)

    def test_invalid_base_short_circuits(self):
        ch = Chart(("t",))
        z, o = Poly.zero(ch), Poly.const(ch, 1)
        E = FramedBundle(ch, ("e1", "e2", "e3"))
        bad = AlgebroidStructure(E, [[z]] * 3,
                                 {(0, 1): [z, z, o], (1, 2): [o, z, z],
                                  (0, 2): [-o, z, z]})
        triv = AlgebroidStructure(E.dual(), [[z]] * 3, {})
        rep = check_bialgebroid(bad, triv)
        assert not rep.passed
        assert rep.items[0].law == "base structure valid"


def catalog_pairs():
    """Every dual pair of valid algebroids defined in a catalog scene, in
    both orientations."""
    pairs = []
    for name in example_names():
        algs = [(key, obj) for key, obj in parse_scene(example_source(name)).objects.items()
                if isinstance(obj, AlgebroidStructure) and obj.validate().passed]
        pairs += [(f"{name}:{ka}/{kb}", A, B) for ka, A in algs for kb, B in algs
                  if A.bundle.dual() == B.bundle]
    return pairs


def kosmann_pairs():
    """The deformed-tangent/cotangent pairs of ``kosmann_equivalence``, both
    orientations, in dimensions 2 and 3.  (pi0, J2) and (z @x^@y, Jxy) are
    not PN, so their pairs fail the cocycle."""
    Z3, O3 = Poly.var(CH3, "z"), Poly.const(CH3, 1)
    zpi = Multivector(CH3, 2, {(0, 1): Z3})
    cases = [("pi0,x*id", PI0, XID), ("pi0,J2", PI0, J2),
             ("z*pi0,id", zpi, VForm(CH3, 1, 3, {((i,), i): O3 for i in range(3)})),
             ("z*pi0,Jxy", zpi, VForm(CH3, 1, 3, {((0,), 1): O3, ((1,), 0): -O3}))]
    pairs = []
    for label, pi, r in cases:
        tmr = deform_algebroid(tangent_algebroid(pi.chart), r.matrix())
        ctg = cotangent_of_poisson(pi)
        pairs += [(f"{label}:TM_r/T*M", tmr, ctg), (f"{label}:T*M/TM_r", ctg, tmr)]
    return pairs


def heisenberg_pair():
    """Criterion 7: [e1,e2] = e3 with the dual bracket [e1*,e2*] = e1*."""
    E = FramedBundle(CH2, ("e1", "e2", "e3"))
    zrow = [[ZERO, ZERO]] * 3
    return [("heisenberg", AlgebroidStructure(E, zrow, {(0, 1): [ZERO, ZERO, ONE]}),
             AlgebroidStructure(E.dual(), zrow, {(0, 1): [ONE, ZERO, ZERO]}))]


def ce_differential(Astar, section: VForm) -> FrameBivector:
    """Differential on sections of A induced by the structure on A*:

        delta(s)(m1, m2) = L_{rho*(m1)}<m2, s> - L_{rho*(m2)}<m1, s>
                           - <[m1, m2]*, s>

    evaluated on the dual frame; returns a wedge-square section of A."""
    comps, rank, zero = section.section_components(), Astar.bundle.rank, Poly.zero(Astar.chart)
    out = {}
    for a in range(rank):
        for b in range(a + 1, rank):
            bracket = frame_bracket(Astar, a, b)
            out[(a, b)] = (derivative(Astar.anchor[a], comps[b])
                           - derivative(Astar.anchor[b], comps[a])
                           - sum((c * x for c, x in zip(bracket, comps)), zero))
    return FrameBivector(Astar.bundle.dual(), out)


def lie_on_bivector(A, s: VForm):
    """P -> L_s P: the bracket extended as a derivation of the wedge,
    L_s (p u_a ^ u_b) = rho(s)(p) u_a ^ u_b + p [s, u_a] ^ u_b + p u_a ^ [s, u_b]."""
    rank, rho_s = A.bundle.rank, anchor_of(A, s).section_components()
    brackets = [section_bracket(A, s, A.bundle.frame_section(c)).section_components()
                for c in range(rank)]

    def lie(P: FrameBivector) -> FrameBivector:
        out = {}

        def add(x, y, q):
            if x != y:
                key = (min(x, y), max(x, y))
                out[key] = out.get(key, Poly.zero(A.chart)) + (q if x < y else -q)
        for (a, b), p in P.coeffs.items():
            add(a, b, derivative(rho_s, p))
            for c in range(rank):
                add(c, b, p * brackets[a][c])
                add(a, c, p * brackets[b][c])
        return FrameBivector(A.bundle, out)
    return lie


def cocycle_by_pairs(A, Astar):
    """(detail, defect) for every probe pair, each defect recomputed pair by
    pair from delta and ``lie_on_bivector`` of each probe section."""
    names, rank = A.bundle.frame, A.bundle.rank
    sections = [(names[a], A.bundle.frame_section(a)) for a in range(rank)]
    sections += [(f"{c}*{names[a]}", A.bundle.frame_section(a) * Poly.var(A.chart, c))
                 for c in A.chart.coords for a in range(rank)]
    deltas = [ce_differential(Astar, s) for _, s in sections]
    lies = [lie_on_bivector(A, s) for _, s in sections]
    out = []
    for i, (la, sa) in enumerate(sections):
        for j in range(i + 1, len(sections)):
            lb, sb = sections[j]
            defect = (ce_differential(Astar, section_bracket(A, sa, sb))
                      - lies[i](deltas[j]) + lies[j](deltas[i]))
            out.append((f"({la},{lb})", defect))
    return out


def separable_r4(slots) -> tuple:
    """(T*M_pi, r) on R^4, pi = @x0^@y0 + @x1^@y1, r = sum over the given
    coordinate slots i of x_(i mod 2) @i di."""
    ch = Chart(("x0", "x1", "y0", "y1"))
    one, xs = Poly.const(ch, 1), [Poly.var(ch, c) for c in ("x0", "x1")]
    ctg = cotangent_of_poisson(Multivector(ch, 2, {(0, 2): one, (1, 3): one}))
    return ctg, VForm(ch, 1, 4, {((i,), i): xs[i % 2] for i in slots})


def separable_pairs() -> list[tuple]:
    """(TM_r, T*M_pi) in both orientations on R^4 (``separable_r4``):
    r = sum x_i (@x_i dx_i + @y_i dy_i) makes a PN pair with pi, and its half
    sum x_i @x_i dx_i, still Nijenhuis, does not."""
    pairs = []
    for kind, slots in (("full", (0, 1, 2, 3)), ("half", (0, 1))):
        ctg, r = separable_r4(slots)
        tmr = deform_algebroid(tangent_algebroid(ctg.chart), r.matrix())
        pairs += [(f"R4-{kind}:TM_r/T*M", tmr, ctg), (f"R4-{kind}:T*M/TM_r", ctg, tmr)]
    return pairs


COCYCLE_PAIRS = catalog_pairs() + kosmann_pairs() + heisenberg_pair() + separable_pairs()


class TestDualDifferential:
    def test_aff2_values(self):
        A, Astar = aff2_pair()
        e1 = A.bundle.frame_section(0)
        e2 = A.bundle.frame_section(1)
        assert ce_differential(Astar, e1).is_zero
        d2 = ce_differential(Astar, e2)
        assert d2.coeffs == {(0, 1): ONE}

    def test_leibniz_over_functions(self):
        rng = random.Random(53)
        ctg = cotangent_of_poisson(PI0)
        TM = tangent_algebroid(CH2)
        s = rnd_vf(rng, CH2)
        f = rnd_poly(rng, CH2)
        lhs = ce_differential(ctg, s * f)
        # delta(f s) = f delta(s) + df_pi ^ s with df taken through the anchor
        df = [sum((ctg.anchor[a][i] * f.diff(i) for i in range(2)), ZERO)
              for a in range(2)]
        sc = s.section_components()
        df_s = FrameBivector(TM.bundle, {(0, 1): df[0] * sc[1] - df[1] * sc[0]})
        rhs = ce_differential(ctg, s) * f + df_s
        assert (lhs - rhs).is_zero


class TestCocycleItems:
    @pytest.mark.parametrize("label, A, Astar", COCYCLE_PAIRS,
                             ids=[p[0] for p in COCYCLE_PAIRS])
    def test_items_match_pairwise_recomputation(self, label, A, Astar):
        assert A.validate().passed and Astar.validate().passed
        expect = [("cocycle condition", detail, d.is_zero, None if d.is_zero else d)
                  for detail, d in cocycle_by_pairs(A, Astar)]
        assert [(i.law, i.detail, i.passed, i.defect)
                for i in _cocycle(A, Astar).items] == expect

    def test_corpus_has_passing_and_failing_pairs(self):
        assert len(catalog_pairs()) == 6
        reports = {label: _cocycle(A, Astar) for label, A, Astar in COCYCLE_PAIRS}
        failing = {label for label, rep in reports.items() if not rep.passed}
        assert {"pi0,J2:TM_r/T*M", "z*pi0,Jxy:T*M/TM_r", "heisenberg"} <= failing
        assert not {"lnb-tangent-xid:A/Astar", "z*pi0,id:TM_r/T*M"} & failing
        assert {label: (len(rep.items), len(rep.failures())) for label, rep in reports.items()
                if label.startswith("R4-")} == {
            "R4-full:TM_r/T*M": (190, 0), "R4-full:T*M/TM_r": (190, 0),
            "R4-half:TM_r/T*M": (190, 47), "R4-half:T*M/TM_r": (190, 47)}

    def test_frames_that_are_not_dual_raise(self):
        # {mu, gamma} pairs A's frame with A*'s, and each defect is a bivector of A
        TM = tangent_algebroid(CH2)
        other = AlgebroidStructure(FramedBundle(CH2, ("f1", "f2")), [[ZERO, ZERO]] * 2, {})
        # rank 1 over a point has a single probe and so no probe pair
        e, f = (AlgebroidStructure(FramedBundle(Chart(()), (name,)), [[]], {})
                for name in ("e", "f"))
        for A, B in ((TM, other), (e, f)):
            assert A.validate().passed and B.validate().passed
            with pytest.raises(PolyError, match="shape mismatch"):
                check_bialgebroid(A, B)

    def test_degree_limit_meets_only_formed_products(self):
        # with degree-1 structure and a constant dual anchor, Theta = {mu, gamma}
        # has degree-1 coefficients, each term with one xi; {g theta_b, Theta}
        # multiplies the probe's g into the terms it strips of that xi, and
        # the outer bracket with h theta_c multiplies h only into the terms
        # that kept it, which carry no probe coordinate: nothing past degree 2
        # is formed, though x y [e1, e2] = x^2 y e1 has degree 3
        E = FramedBundle(CH2, ("e1", "e2"))
        A = AlgebroidStructure(E, [[ZERO, ZERO]] * 2, {(0, 1): [X, ZERO]})
        Astar = AlgebroidStructure(E.dual(), [[ONE, ZERO], [ZERO, ONE]], {})
        expect = [(i.law, i.detail, i.passed) for i in check_bialgebroid(A, Astar).items]
        old = get_degree_limit()
        try:
            set_degree_limit(2)
            got = [(i.law, i.detail, i.passed) for i in check_bialgebroid(A, Astar).items]
            set_degree_limit(1)
            with pytest.raises(GrowthLimitError, match="degree 2 exceeds limit 1"):
                check_bialgebroid(A, Astar)
        finally:
            set_degree_limit(old)
        assert got == expect and "(e1,y*e2)" in [d for _, d, ok in got if not ok]

    def test_heisenberg_fails_on_exactly_e1_e2_among_frame_pairs(self):
        _, A, Astar = heisenberg_pair()[0]
        failing = [i.detail for i in _cocycle(A, Astar).failures()]
        assert [d for d in failing if "*" not in d] == ["(e1,e2)"]


def mu_mu_vanishes(S) -> bool:
    """{mu, mu} = 0 for the degree-3 function mu of S."""
    mu = _hamiltonian(S, 0)
    return not _big_bracket(mu, mu, S.bundle.rank)


def mu_gamma_vanishes(A, Astar) -> bool:
    """{mu, gamma} = 0 for the pair (A, A*)."""
    rank = A.bundle.rank
    return not _big_bracket(_hamiltonian(A, 0), _hamiltonian(Astar, rank), rank)


def rnd_low(rng: random.Random, chart: Chart) -> Poly:
    """One to three monomials of degree <= 2 with coefficients in {-2,-1,1,2}."""
    n = chart.dim
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    monos = [(0,) * n] + units + [tuple(map(sum, zip(u, v)))
                                  for i, u in enumerate(units) for v in units[i:]]
    return Poly(chart, {m: rng.choice((-2, -1, 1, 2))
                        for m in rng.sample(monos, rng.randint(1, 3))})


def rnd_poisson(rng: random.Random, chart: Chart) -> Multivector:
    """g @x^@y on R^2, and g (c_3 @x^@y + c_1 @y^@z - c_2 @x^@z), the Jacobian
    bracket of a linear function with weight g, on R^3: Poisson for every g."""
    g = rnd_low(rng, chart)
    if chart.dim == 2:
        return Multivector(chart, 2, {(0, 1): g})
    c = [rng.randint(-1, 1) for _ in range(3)]
    return Multivector(chart, 2, {(0, 1): g * c[2], (1, 2): g * c[0], (0, 2): g * -c[1]})


def rnd_nijenhuis(rng: random.Random, chart: Chart) -> VForm:
    """A constant endomorphism, a multiple of the identity (constant, or by a
    degree-1 function), or a diagonal one whose i-th entry depends on x_i
    alone: each has vanishing torsion."""
    n, kind = chart.dim, rng.randrange(4)
    if kind == 0:
        return VForm(chart, 1, n, {((i,), j): Poly.const(chart, rng.randint(-2, 2))
                                   for i in range(n) for j in range(n)})
    if kind == 3:
        return VForm(chart, 1, n, {((i,), i): Poly.var(chart, c) * rng.randint(-2, 2)
                                   + rng.randint(-2, 2) for i, c in enumerate(chart.coords)})
    f = Poly.const(chart, rng.randint(-2, 2)) if kind == 1 else rnd_poly(rng, chart)
    return VForm(chart, 1, n, {((i,), i): f for i in range(n)})


def random_tm_ctg_pairs(seed: int, count: int) -> list[tuple]:
    """(TM_r, T*M_pi) in both orientations on R^2 and R^3, for Poisson pi of
    degree <= 2 and constant or degree-1 Nijenhuis r."""
    rng, pairs = random.Random(seed), []
    while len(pairs) < count:
        chart = rng.choice((CH2, CH3))
        pi, r = rnd_poisson(rng, chart), rnd_nijenhuis(rng, chart)
        tmr = deform_algebroid(tangent_algebroid(chart), r.matrix())
        ctg = cotangent_of_poisson(pi)
        pairs += [(tmr, ctg), (ctg, tmr)]
    return pairs


def bianchi(rng: random.Random, bundle: FramedBundle) -> AlgebroidStructure:
    """A zero-anchor rank-3 Lie algebra with constant structure, in Bianchi
    form [e_i, e_j] = eps_ijk n^kl e_l + a_i e_j - a_j e_i, n = diag(n_1, n_2,
    n_3) and a a multiple of a basis vector that n kills."""
    chart = bundle.chart
    n = [rng.randint(-1, 1) for _ in range(3)]
    free = [i for i in range(3) if n[i] == 0]
    a = [0, 0, 0]
    if free:
        a[rng.choice(free)] = rng.randint(-1, 1)
    structure = {}
    for (i, j), (k, eps) in {(0, 1): (2, 1), (0, 2): (1, -1), (1, 2): (0, 1)}.items():
        comps = [eps * n[k] * (v == k) + a[i] * (v == j) - a[j] * (v == i) for v in range(3)]
        structure[(i, j)] = [Poly.const(chart, c) for c in comps]
    return AlgebroidStructure(bundle, [[Poly.zero(chart)] * chart.dim] * 3, structure)


def rank3_bialgebra_pairs(seed: int, count: int) -> list[tuple]:
    rng = random.Random(seed)
    E = FramedBundle(CH2, ("e1", "e2", "e3"))
    return [(bianchi(rng, E), bianchi(rng, E.dual())) for _ in range(count)]


def gl2_pair(drop_21_22: bool = False) -> tuple:
    """The standard Lie bialgebra on gl_2 over a point, or the same without
    the dual bracket [xi21, xi22] = xi21."""
    ch = Chart(())
    E = FramedBundle(ch, ("E11", "E12", "E21", "E22"))

    def vec(*cs):
        return [Poly.const(ch, c) for c in cs]
    A = AlgebroidStructure(E, [[]] * 4, {
        (0, 1): vec(0, 1, 0, 0), (0, 2): vec(0, 0, -1, 0), (1, 2): vec(1, 0, 0, -1),
        (1, 3): vec(0, 1, 0, 0), (2, 3): vec(0, 0, -1, 0)})
    dual = {(0, 1): vec(0, 1, 0, 0), (1, 3): vec(0, 1, 0, 0), (0, 2): vec(0, 0, 1, 0),
            (2, 3): vec(0, 0, 1, 0)}
    if drop_21_22:
        del dual[(2, 3)]
    return A, AlgebroidStructure(E.dual(), [[]] * 4, dual)


def oracle_items(A, Astar) -> list[tuple]:
    """The cocycle items of (A, A*), each defect recomputed by ``cocycle_by_pairs``."""
    return [("cocycle condition", detail, d.is_zero, None if d.is_zero else d)
            for detail, d in cocycle_by_pairs(A, Astar)]


def verdicts(A, Astar) -> tuple[bool, bool]:
    """({mu, gamma} = 0, whether every probe pair passes), once ``_cocycle``'s
    items, defects included, are seen to equal the pairwise oracle's."""
    expect = oracle_items(A, Astar)
    assert items(_cocycle(A, Astar)) == expect
    return mu_gamma_vanishes(A, Astar), all(passed for _, _, passed, _ in expect)


def mu_mu_corpus() -> list[AlgebroidStructure]:
    """169 structures, 63 of them not Lie: 60 random anchored brackets of
    rank 2, both sides of seeded tangent/cotangent pairs and rank-3
    bialgebras, and ``VALIDATE_CASES``."""
    rng = random.Random(28)
    E = FramedBundle(CH2, ("e1", "e2"))
    anchored = [AlgebroidStructure(E, [[rnd_poly(rng, CH2, -1, 1) for _ in range(2)]
                                       for _ in range(2)],
                                   {(0, 1): [rnd_poly(rng, CH2, -1, 1) for _ in range(2)]})
                for _ in range(60)]
    pairs = random_tm_ctg_pairs(29, 40) + rank3_bialgebra_pairs(30, 10)
    return anchored + [S for pair in pairs for S in pair] + [S for _, S in VALIDATE_CASES]


def validate_by_mu_mu(S) -> list[tuple]:
    """The items of ``S.validate()`` read off M = {mu, mu}, u_a = theta_a: the
    anchor-morphism defect of (u_a, u_b) is -1/2 the p part of
    {{u_a, M}, u_b}, and the Jacobi defect of (u_a, u_b, u_c) is
    -1/2 {{{u_a, M}, u_b}, u_c}."""
    chart, rank, names = S.chart, S.bundle.rank, S.bundle.frame
    half = Fraction(-1, 2)

    def unit(a):
        return [((), (rank + a,), Poly.const(chart, 1), 1)]

    def bracket(a, *units):
        """{...{{u_a, M}, u_b}..., u_z} for the frame indices a, b, ..., z"""
        H = _big_bracket(unit(a), M, rank)
        for b in units:
            H = _big_bracket(H, unit(b), rank)
        return H

    def section(H, keys):
        comps, zero = {(P, w): p for P, w, p, _ in H}, Poly.zero(chart)
        return VForm.section(chart, [comps.get(key, zero) * half for key in keys])
    mu = _hamiltonian(S, 0)
    M = _big_bracket(mu, mu, rank)
    out = []

    def item(law, defect, detail):
        out.append((law, detail, defect.is_zero, None if defect.is_zero else defect))
    for a in range(rank):
        for b in range(a + 1, rank):
            item("anchor morphism",
                 section(bracket(a, b), [((i,), ()) for i in range(chart.dim)]),
                 f"({names[a]},{names[b]})")
    for a in range(rank):
        for b in range(a + 1, rank):
            for c in range(b + 1, rank):
                item("Jacobi identity",
                     section(bracket(a, b, c), [((), (rank + v,)) for v in range(rank)]),
                     f"({names[a]},{names[b]},{names[c]})")
    return out


class TestBigBracket:
    """{mu, gamma} = 0 decides the cocycle of a valid pair, each defect is
    -{{s, {mu, gamma}}, t}, and {mu, mu} = 0 decides ``validate``, on corpora
    that contain both verdicts.  The probe items are recomputed pair by pair
    (``cocycle_by_pairs``), away from the big bracket."""

    def test_generator_conventions(self):
        # rank 2 over R^2: xi^1 is odd index 0, theta_1 is 2; terms are (p
        # indices, odd indices, coefficient, sign).  F is differentiated from
        # the right in the odd generators and G from the left, so
        # {xi^1 xi^2, theta_1} = -xi^2 while {theta_1, xi^1 xi^2} = xi^2
        def gen(p=(), odd=(), c=ONE):
            return [(p, odd, c, 1)]

        def bracket(F, G):
            return {(P, w): p for P, w, p, _ in _big_bracket(F, G, 2)}
        assert bracket(gen(odd=(2,)), gen(odd=(0,))) == {((), ()): ONE}
        assert bracket(gen(odd=(0,)), gen(odd=(2,))) == {((), ()): ONE}
        assert bracket(gen(p=(0,)), gen(c=X)) == {((), ()): ONE}
        assert bracket(gen(c=X), gen(p=(0,))) == {((), ()): -ONE}
        assert bracket(gen(odd=(0, 1)), gen(odd=(2,))) == {((), (1,)): -ONE}
        assert bracket(gen(odd=(2,)), gen(odd=(0, 1))) == {((), (1,)): ONE}
        assert bracket(gen(odd=(0,)), gen(odd=(1,))) == {}
        # several p in one term: d/dp_i takes each distinct p_i once, times
        # its multiplicity.  {p0 p0, x^2} = 2 p0 * 2x, {x, p0 p1} = -dx/dx p1,
        # {p0 p1, xy} = p1 y + p0 x, {xy, p0 p0} = -y * 2 p0, and the odd
        # part keeps every p: {theta_1, p0 p1 xi^1} = p0 p1
        assert bracket(gen(p=(0, 0)), gen(c=X * X)) == {((0,), ()): 4 * X}
        assert bracket(gen(c=X), gen(p=(0, 1))) == {((1,), ()): -ONE}
        assert bracket(gen(p=(0, 1)), gen(c=X * Y)) == {((1,), ()): Y, ((0,), ()): X}
        assert bracket(gen(c=X * Y), gen(p=(0, 0))) == {((0,), ()): -2 * Y}
        assert bracket(gen(odd=(2,)), gen(p=(0, 1), odd=(0,))) == {((0, 1), ()): ONE}

    @pytest.mark.parametrize("label, A, Astar", COCYCLE_PAIRS,
                             ids=[p[0] for p in COCYCLE_PAIRS])
    def test_cocycle_pairs_agree_with_the_probe_loop(self, label, A, Astar):
        vanishes, passed = verdicts(A, Astar)
        assert vanishes == passed

    def test_random_tangent_cotangent_pairs_agree(self):
        pairs = random_tm_ctg_pairs(26, 160)
        assert all(A.validate().passed and B.validate().passed for A, B in pairs)
        got = [verdicts(A, B) for A, B in pairs]
        assert [i for i, (v, p) in enumerate(got) if v != p] == []
        assert sum(p for _, p in got) >= 30 and sum(not p for _, p in got) >= 30

    def test_rank3_bialgebras_agree(self):
        pairs = rank3_bialgebra_pairs(27, 40)
        assert all(A.validate().passed and B.validate().passed for A, B in pairs)
        got = [verdicts(A, B) for A, B in pairs]
        assert [i for i, (v, p) in enumerate(got) if v != p] == []
        assert sum(p for _, p in got) >= 5 and sum(not p for _, p in got) >= 5

    def test_gl2_standard_bialgebra_and_its_mutilation(self):
        A, Astar = gl2_pair()
        assert A.validate().passed and Astar.validate().passed
        assert verdicts(A, Astar) == (True, True)
        A, Astar = gl2_pair(drop_21_22=True)
        assert Astar.validate().passed
        assert verdicts(A, Astar) == (False, False)
        assert [i.detail for i in _cocycle(A, Astar).failures()] == ["(E12,E21)"]

    def test_passing_pairs_report_the_probe_items_without_forming_them(self, monkeypatch):
        # every probe term list goes through _big_bracket and every defect
        # through FrameBivector._trusted: a passing pair forms {mu, gamma} only
        cases = [(A, B) for _, A, B in COCYCLE_PAIRS if mu_gamma_vanishes(A, B)]
        expect = [oracle_items(A, B) for A, B in cases]
        calls = []
        big_bracket = algebroid._big_bracket

        def counted(*args):
            calls.append(args)
            return big_bracket(*args)

        def refuse(*args):
            raise AssertionError("a defect was formed on a passing pair")
        monkeypatch.setattr(algebroid, "_big_bracket", counted)
        monkeypatch.setattr(FrameBivector, "_trusted", refuse)
        assert len(cases) == 12
        assert [items(_cocycle(A, B)) for A, B in cases] == expect
        assert len(calls) == len(cases)

    def test_swapped_pairs_share_the_verdict(self):
        # {mu, gamma} of (B, A) is that of (A, B) with xi and theta exchanged
        pairs = ([(A, B) for _, A, B in COCYCLE_PAIRS] + random_tm_ctg_pairs(26, 160)
                 + rank3_bialgebra_pairs(27, 40))
        pairs = [(A, B) for A, B in pairs if A.validate().passed and B.validate().passed]
        got = [(_cocycle(A, B).passed, _cocycle(B, A).passed) for A, B in pairs]
        assert [i for i, (x, y) in enumerate(got) if x != y] == []
        assert (len(pairs), sum(not x for x, _ in got)) == (219, 139)

    def test_mu_mu_decides_validate(self):
        cases = mu_mu_corpus()
        got = [(mu_mu_vanishes(S), S.validate().passed) for S in cases]
        assert [i for i, (v, p) in enumerate(got) if v != p] == []
        assert sum(p for _, p in got) >= 40 and sum(not p for _, p in got) >= 40
        # and {mu, mu} gives every defect of validate
        assert [i for i, S in enumerate(cases)
                if items(S.validate()) != validate_by_mu_mu(S)] == []

    def test_mu_mu_sees_the_jacobi_and_koszul_failures(self):
        failing = {label: S for label, S in VALIDATE_CASES if label in (
            "rank3-jacobi", "non-poisson")}
        assert failing["non-poisson"].pre_lie_only
        assert not any(mu_mu_vanishes(S) for S in failing.values())


class TestDeformAlgebroid:
    def test_scaling_endomorphism(self):
        A = deform_algebroid(tangent_algebroid(CH2), XID.matrix())
        # [d/dx, d/dy] deformed by x-scaling picks up the derivative of x
        assert frame_bracket(A, 0, 1) == [ZERO, ONE]
        assert A.validate().passed

    def test_rotation_endomorphism(self):
        A = deform_algebroid(tangent_algebroid(CH2), J2.matrix())
        assert not any(frame_bracket(A, 0, 1))
        assert A.validate().passed


def rnd_frame_matrix(rng: random.Random, S: AlgebroidStructure) -> list[list[Poly]]:
    """A rank x rank frame matrix of ``rnd_poly`` entries in [-1, 1]."""
    rank = S.bundle.rank
    return [[rnd_poly(rng, S.chart, -1, 1) for _ in range(rank)] for _ in range(rank)]


class TestBracketReadings:
    """``validate``, ``deform_algebroid`` and ``algebroid_torsion`` read their
    items off {mu, mu}, {N, mu} and {N, {N, mu}} - {N^2, mu}; the references
    expand section brackets by hand (``helpers.section_bracket``)."""

    def test_items_match_the_section_bracket_oracles(self):
        rng, cases = random.Random(32), mu_mu_corpus()
        torsion_failing = 0
        for S in cases:
            M = rnd_frame_matrix(rng, S)
            got, want = deform_algebroid(S, M), ref_deform(S, M)
            assert (got.anchor, got.structure, got.pre_lie_only) == (
                want.anchor, want.structure, want.pre_lie_only)
            rep, expect = algebroid_torsion(S, M), ref_torsion(S, M)
            assert items(rep) == expect
            assert [str(i.defect) for i in rep.items] == [str(d) for *_, d in expect]
            torsion_failing += not rep.passed
        assert (len(cases), torsion_failing) == (169, 161)
        assert [i for i, S in enumerate(cases) if items(S.validate()) != ref_validate(S)] == []

    def test_endomorphism_of_the_wrong_shape_raises(self):
        A = tangent_algebroid(CH2)
        square3 = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
        ragged = [[ONE, ZERO], [ZERO]]
        for M in (square3, ragged):
            for f in (deform_algebroid, algebroid_torsion):
                with pytest.raises(PolyError, match="rank x rank"):
                    f(A, M)


class TestIMEquations:
    def test_drT_always_satisfies_them(self):
        rng = random.Random(55)
        A = tangent_algebroid(CH2)
        for _ in range(3):
            assert check_im(A, build_drT(rnd_endo(rng, CH2))).passed

    def test_anchors_agree_for_drT(self):
        # IM (4) says the anchors r o rho and rho o l agree; IM (2) is what
        # makes the bracket [l a, b] + D_{rho(b)}(a) skew
        rng = random.Random(54)
        A = tangent_algebroid(CH2)
        laws = ("IM symbol square", "IM symbol-bracket compatibility")
        for _ in range(3):
            rep = check_im(A, build_drT(rnd_endo(rng, CH2)))
            items = [i for i in rep.items if i.law in laws]
            assert {i.law for i in items} == set(laws)
            assert all(i.passed for i in items)

    def test_extends_once_per_frame_pair_and_anchor(self, monkeypatch):
        # every item is read off the frame data: D([u_a, u_b]) comes from the
        # Leibniz rule on the structure functions and D^{r,T} is never built,
        # so nothing is extended
        calls = []
        extend = GenDer.extend

        def counted(self, eta):
            calls.append(eta)
            return extend(self, eta)
        monkeypatch.setattr(GenDer, "extend", counted)
        assert check_im(tangent_algebroid(CH2), build_drT(XID)).passed
        assert len(calls) == 0

    def test_degree_mismatch(self):
        A = tangent_algebroid(CH2)
        D0 = GenDer(A.bundle, 0,
                    [A.bundle.frame_section(a) for a in range(2)],
                    None, VForm.zero(CH2, 0, 2))
        with pytest.raises(PolyError):
            check_im(A, D0)

    def test_cotangent_with_selfadjoint_endo(self):
        ctg = cotangent_of_poisson(PI0)
        assert check_im(ctg, build_drTstar(XID)).passed

    def test_cotangent_with_rotation_fails_symbol_square(self):
        ctg = cotangent_of_poisson(PI0)
        rep = check_im(ctg, build_drTstar(J2))
        assert not rep.passed
        assert {i.law for i in rep.failures()} == {"IM symbol square"}

    def test_flat_connection_with_identity_symbol(self):
        A = tangent_algebroid(CH2)
        lf = [A.bundle.frame_section(a) for a in range(2)]
        gamma = [[[ZERO, ZERO], [ZERO, ZERO]], [[ZERO, ZERO], [ZERO, ZERO]]]
        D = build_from_connection(A.bundle, gamma, lf, VForm(CH2, 1, 2, {}))
        rep = check_im(A, D)
        assert not rep.passed
        assert {i.law for i in rep.failures()} == {"IM symbol square"}


def catalog_im_pairs():
    """(A, D) for every catalog algebroid and degree-1 derivation on one
    bundle, and (A*, dual D) for the algebroid on the dual bundle."""
    out = []
    for name in example_names():
        objs = parse_scene(example_source(name)).objects
        for kd, D in objs.items():
            if not (isinstance(D, GenDer) and D.degree == 1):
                continue
            for ka, A in objs.items():
                if isinstance(A, AlgebroidStructure) and A.bundle == D.bundle:
                    out.append((f"{name}:{ka},{kd}", A, D))
                elif isinstance(A, AlgebroidStructure) and A.bundle == D.bundle.dual():
                    out.append((f"{name}:{ka},dual({kd})", A, dual(D)))
    return out


def random_gder(rng: random.Random, bundle: FramedBundle) -> GenDer:
    """A degree-1 derivation with random D(u_a), l(u_a) and symbol."""
    chart, rank = bundle.chart, bundle.rank
    d_frame = [VForm(chart, 1, rank, {((i,), v): rnd_poly(rng, chart)
                                      for i in range(chart.dim) for v in range(rank)})
               for _ in range(rank)]
    l_frame = [VForm.section(chart, [rnd_poly(rng, chart) for _ in range(rank)])
               for _ in range(rank)]
    return GenDer(bundle, 1, d_frame, l_frame, rnd_endo(rng, chart))


def im_cases():
    xpi = cotangent_of_poisson(Multivector(CH2, 2, {(0, 1): X}))
    tm = tangent_algebroid(CH2)
    return catalog_im_pairs() + [
        ("T*M_pi0,drTstar(J2)", cotangent_of_poisson(PI0), build_drTstar(J2)),
        ("TM,random", tm, random_gder(random.Random(61), tm.bundle)),
        ("T*M_xpi0,random", xpi, random_gder(random.Random(62), xpi.bundle))] + rank3_im_cases()


def rank3_im_cases():
    """Rank 3 on R^3 with non-constant anchors and structure entries in both
    index orders, so that every term of the IM readings acts, each with a
    random derivation: T*M of the so3* bivector z @x^@y + x @y^@z + y @z^@x,
    and TM deformed by x times a random endomorphism, whose structure
    functions are not constant.  Then the separable PN pair on R^4
    (``separable_pairs``) on both sides of (TM, T*M_pi, D^r)."""
    x, y, z = (Poly.var(CH3, c) for c in CH3.coords)
    so3 = cotangent_of_poisson(Multivector(CH3, 2, {(0, 1): z, (1, 2): x, (0, 2): -y}))
    M = [[x * p for p in row] for row in rnd_endo(random.Random(63), CH3).matrix()]
    tmM = deform_algebroid(tangent_algebroid(CH3), M)
    ctg, r = separable_r4(range(4))
    return [("T*M_so3,random", so3, random_gder(random.Random(64), so3.bundle)),
            ("TM_M,random", tmM, random_gder(random.Random(65), tmM.bundle)),
            ("R4:TM,drT(r)", tangent_algebroid(ctg.chart), build_drT(r)),
            ("R4:T*M_pi,drTstar(r)", ctg, build_drTstar(r))]


IM_CASES = im_cases()


def items(report: CheckReport) -> list[tuple]:
    return [(i.law, i.detail, i.passed, i.defect) for i in report.items]


class TestIMItems:
    @pytest.mark.parametrize("label, A, D", IM_CASES, ids=[c[0] for c in IM_CASES])
    def test_items_match_pairwise_recomputation(self, label, A, D):
        assert items(check_im(A, D)) == ref_check_im(A, D)

    def test_corpus_passes_and_fails_on_every_law(self):
        assert len(catalog_im_pairs()) == 4
        assert all(check_im(A, D).passed for _, A, D in catalog_im_pairs())
        failing = {label: {law for law, _, passed, _ in ref_check_im(A, D) if not passed}
                   for label, A, D in IM_CASES}
        assert failing["T*M_pi0,drTstar(J2)"] == {"IM symbol square"}
        laws = {"IM bracket compatibility", "IM anchor intertwining"}
        assert laws <= failing["TM,random"] and laws <= failing["T*M_xpi0,random"]
        every = laws | {"IM symbol-bracket compatibility", "IM symbol square"}
        assert failing["T*M_so3,random"] == failing["TM_M,random"] == every
        assert not failing["R4:TM,drT(r)"] and not failing["R4:T*M_pi,drTstar(r)"]


def validate_cases():
    ch = Chart(("t",))
    z, o = Poly.zero(ch), Poly.const(ch, 1)
    jacobi = AlgebroidStructure(FramedBundle(ch, ("e1", "e2", "e3")), [[z]] * 3,
                                {(0, 1): [z, z, o], (1, 2): [o, z, z], (0, 2): [-o, z, z]})
    Y3, X3 = Poly.var(CH3, "y"), Poly.var(CH3, "x")
    non_poisson = cotangent_of_poisson(Multivector(CH3, 2, {(0, 1): Y3, (1, 2): X3}))
    twisted = deform_algebroid(tangent_algebroid(CH3),
                               rnd_endo(random.Random(63), CH3).matrix())
    cases = [(f"{name}:{key}", obj) for name in example_names()
             for key, obj in parse_scene(example_source(name)).objects.items()
             if isinstance(obj, AlgebroidStructure)]
    return cases + [("rank3-jacobi", jacobi), ("non-poisson", non_poisson),
                    ("deformed-TM", twisted)]


VALIDATE_CASES = validate_cases()


class TestValidateItems:
    @pytest.mark.parametrize("label, A", VALIDATE_CASES,
                             ids=[c[0] for c in VALIDATE_CASES])
    def test_items_match_pairwise_recomputation(self, label, A):
        assert items(A.validate()) == ref_validate(A)

    def test_corpus_fails_both_laws(self):
        failing = {label: {law for law, _, passed, _ in ref_validate(A) if not passed}
                   for label, A in VALIDATE_CASES}
        assert failing["rank3-jacobi"] == {"Jacobi identity"}
        assert failing["non-poisson"] == {"anchor morphism", "Jacobi identity"}
        assert failing["deformed-TM"] == {"anchor morphism", "Jacobi identity"}
        assert not any(failing[label] for label, _ in VALIDATE_CASES if ":" in label)


# zero, a constant, or a polynomial of degree <= 1 over R^2
LOW_POLYS = st.one_of(
    st.just(ZERO), st.integers(-2, 2).map(lambda c: Poly.const(CH2, c)),
    st.dictionaries(st.sampled_from(((0, 0), (1, 0), (0, 1))), st.integers(-2, 2),
                    max_size=3).map(lambda t: Poly(CH2, t)))


def low_rows(count: int, width: int):
    return st.lists(st.lists(LOW_POLYS, min_size=width, max_size=width),
                    min_size=count, max_size=count)


def bracket_on(draw, E: FramedBundle) -> AlgebroidStructure:
    """A random anchored bracket on the frame of E over R^2, each entry from
    ``LOW_POLYS``; ``draw`` is a Hypothesis draw function."""
    rank = E.rank
    return AlgebroidStructure(E, draw(low_rows(rank, 2)),
                              {(a, b): draw(low_rows(1, rank))[0]
                               for a in range(rank) for b in range(a + 1, rank)})


@st.composite
def anchored_brackets(draw):
    """A random anchored bracket of rank 1-3 over R^2, a frame matrix and a
    degree-1 derivation on the same bundle, each entry from ``LOW_POLYS``."""
    rank = draw(st.integers(1, 3))
    E = FramedBundle(CH2, ("e1", "e2", "e3")[:rank])
    A = bracket_on(draw, E)
    d_frame = [VForm(CH2, 1, rank, {((i,), v): row[v] for i, row in enumerate(rows)
                                    for v in range(rank)}) for rows in draw(
                   st.lists(low_rows(2, rank), min_size=rank, max_size=rank))]
    l_frame = [VForm.section(CH2, row) for row in draw(low_rows(rank, rank))]
    r = VForm(CH2, 1, 2, {((i,), v): row[v] for i, row in enumerate(draw(low_rows(2, 2)))
                          for v in range(2)})
    return A, draw(low_rows(rank, rank)), GenDer(E, 1, d_frame, l_frame, r)


class TestRandomAnchoredBrackets:
    """Every reading of ``_big_bracket`` and of the IM frame data against its
    section-bracket oracle, on Hypothesis-drawn anchored brackets."""

    @given(anchored_brackets())
    @settings(max_examples=100, deadline=None)
    def test_readings_match_the_oracles(self, drawn):
        A, M, D = drawn
        assert items(A.validate()) == ref_validate(A)
        got, want = deform_algebroid(A, M), ref_deform(A, M)
        assert (got.anchor, got.structure) == (want.anchor, want.structure)
        assert items(algebroid_torsion(A, M)) == ref_torsion(A, M)
        assert items(check_im(A, D)) == ref_check_im(A, D)

    @given(anchored_brackets(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_cocycle_matches_the_pairwise_oracle(self, drawn, data):
        """The items of ``_cocycle`` read off {mu, gamma}, defects included,
        equal ``cocycle_by_pairs`` for a second bracket drawn on the dual
        frame; neither bracket need be Lie."""
        A = drawn[0]
        Astar = bracket_on(data.draw, A.bundle.dual())
        assert items(_cocycle(A, Astar)) == oracle_items(A, Astar)
