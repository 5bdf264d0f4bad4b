"""End-to-end acceptance gate.

Each test covers one acceptance criterion, enforces its time budget, and
prints a single verdict line.  Randomized criteria use fixed seeds so the
suite is reproducible.
"""

import json
import random
import time

import pytest

from lnlab.poly import Chart, Poly, get_degree_limit, set_degree_limit
from lnlab.forms import (DiffForm, Multivector, VForm, exterior_d,
                         frolicher_nijenhuis, nijenhuis_torsion, vf_bracket)
from lnlab.gder import (FramedBundle, GenDer, bracket, build_drT,
                        build_drTstar, cotangent_bundle, dual, tangent_bundle)
from lnlab.algebroid import AlgebroidStructure, check_bialgebroid
from lnlab.pnlab import PNCandidate, check_pn, kosmann_equivalence, mm1_identity
from lnlab.lifts import (TotalChart, cotangent_lift, linearize, tangent_lift,
                         v_map, vertical_lift, verify_correspondence)
from lnlab.lnb import (LNCandidate, base_pn, check_lnb, courant_operator,
                       deform_hierarchy, holomorphic_detect)
from lnlab.algebroid import cotangent_of_poisson, tangent_algebroid
from lnlab.catalog import example_names, example_source
from lnlab.cli import main
from lnlab.scene import parse_scene, render, run

from helpers import CH2, CH3, gd_equal, rnd_bivector, rnd_endo, rnd_poly, rnd_vf

X = Poly.var(CH2, "x")
ONE = Poly.const(CH2, 1)

PI0 = Multivector(CH2, 2, {(0, 1): ONE})
XID = VForm(CH2, 1, 2, {((0,), 0): X, ((1,), 1): X})
IDENT = VForm(CH2, 1, 2, {((0,), 0): ONE, ((1,), 1): ONE})
J2 = VForm(CH2, 1, 2, {((0,), 1): ONE, ((1,), 0): -ONE})
NILP = VForm(CH2, 1, 2, {((0,), 1): X})
ZERO_R = VForm(CH2, 1, 2, {})
ZERO_PI = Multivector(CH2, 2, {})


def verdict(number: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number} [{status}] {label} ({elapsed:.1f}s, "
          f"budget {budget:.0f}s)")
    assert ok
    assert elapsed < budget


def rnd_gder(rng: random.Random, degree: int) -> GenDer:
    TM = tangent_bundle(CH2)
    if degree == 0:
        return GenDer(TM, 0, [rnd_vf(rng, CH2) for _ in range(2)], None,
                      rnd_vf(rng, CH2))
    return GenDer(TM, 1,
                  [VForm(CH2, 1, 2, {((i,), v): rnd_poly(rng, CH2)
                                     for i in range(2) for v in range(2)})
                   for _ in range(2)],
                  [rnd_vf(rng, CH2) for _ in range(2)],
                  VForm(CH2, 1, 2, {((i,), v): rnd_poly(rng, CH2)
                                    for i in range(2) for v in range(2)}))


def test_criterion_1_duality_homomorphism():
    """dual is an involution and a bracket homomorphism, 50 random pairs."""
    rng = random.Random(1001)
    start = time.monotonic()
    ok = True
    degree_pairs = [(0, 0), (0, 1), (1, 1)]
    for trial in range(50):
        k1, k2 = degree_pairs[trial % 3]
        D1, D2 = rnd_gder(rng, k1), rnd_gder(rng, k2)
        ok = ok and gd_equal(dual(dual(D1)), D1)
        ok = ok and gd_equal(dual(bracket(D1, D2)),
                             bracket(dual(D1), dual(D2)))
    verdict(1, "duality involution and bracket homomorphism", ok,
            time.monotonic() - start, 60)


def test_criterion_2_tangent_construction_homomorphism():
    """r -> D^{r,T} intertwines the Froelicher-Nijenhuis bracket, 50 pairs."""
    rng = random.Random(1002)
    start = time.monotonic()
    ok = True
    for _ in range(50):
        r1, r2 = rnd_endo(rng, CH2), rnd_endo(rng, CH2)
        lhs = bracket(build_drT(r1), build_drT(r2))
        rhs = build_drT(frolicher_nijenhuis(r1, r2))
        ok = ok and gd_equal(lhs, rhs)
    verdict(2, "tangent construction is a bracket monomorphism", ok,
            time.monotonic() - start, 30)


def test_criterion_3_lift_correspondence():
    """Tangent and cotangent lifts match the derivation calculus and, for
    decomposable inputs, the classical closed formulas."""
    start = time.monotonic()
    ok = True
    for r in (J2, XID, NILP):
        for build in (build_drT, build_drTstar):
            D = build(r)
            ok = ok and verify_correspondence(linearize(D), D).passed

    rng = random.Random(1003)
    n = 2
    al_comp = [rnd_poly(rng, CH2) for _ in range(n)]
    al = DiffForm(CH2, 1, {(i,): al_comp[i] for i in range(n)})
    Xf = rnd_vf(rng, CH2)
    Xc = Xf.section_components()
    r = VForm(CH2, 1, 2, {((i,), j): al.coeff((i,)) * Xc[j]
                          for i in range(n) for j in range(n)})

    def tensor(tc, form, vec):
        vc = vec.section_components()
        coeffs = {}
        for idx, p in form.coeffs.items():
            for v in range(tc.dim):
                if vc[v].is_zero:
                    continue
                q = p * vc[v]
                if not q.is_zero:
                    coeffs[(idx, v)] = coeffs.get(
                        (idx, v), Poly.zero(tc.chart)) + q
        return VForm(tc.chart, form.degree, tc.dim, coeffs)

    Kt = tangent_lift(r)
    tc = TotalChart.of(tangent_bundle(CH2))
    vx = [Poly.coord(tc.chart, n + i) for i in range(n)]
    Xtg = VForm.section(
        tc.chart,
        [tc.pull(Xc[j]) for j in range(n)]
        + [sum((vx[i] * tc.pull(Xc[j].diff(i)) for i in range(n)),
               Poly.zero(tc.chart)) for j in range(n)])
    altg = {}
    for i in range(n):
        c = sum((tc.pull(al.coeff((i,)).diff(j)) * vx[j] for j in range(n)),
                Poly.zero(tc.chart))
        if not c.is_zero:
            altg[(i,)] = c
        if not al.coeff((i,)).is_zero:
            altg[(n + i,)] = tc.pull(al.coeff((i,)))
    oracle_t = (tensor(tc, tc.pull_form(al), Xtg)
                + tensor(tc, DiffForm(tc.chart, 1, altg),
                         vertical_lift(tc, Xf)))
    ok = ok and (Kt - oracle_t).is_zero

    Kc = cotangent_lift(r)
    tcc = TotalChart.of(cotangent_bundle(CH2))
    pp = [Poly.coord(tcc.chart, n + i) for i in range(n)]
    ellX = sum((pp[i] * tcc.pull(Xc[i]) for i in range(n)),
               Poly.zero(tcc.chart))
    Xctg = VForm.section(
        tcc.chart,
        [tcc.pull(Xc[i]) for i in range(n)]
        + [-sum((pp[j] * tcc.pull(Xc[j].diff(i)) for j in range(n)),
                Poly.zero(tcc.chart)) for i in range(n)])
    Val = v_map(tcc, VForm.section(CH2, [al.coeff((b,)) for b in range(n)]))
    dal = exterior_d(al)
    dtil = VForm(CH2, 1, n, {((i,), b): dal.coeff((b, i))
                             for i in range(n) for b in range(n)})
    dellX = DiffForm(tcc.chart, 1, {(i,): ellX.diff(i)
                                    for i in range(tcc.dim)})
    oracle_c = (tensor(tcc, tcc.pull_form(al), Xctg)
                + tensor(tcc, dellX, Val)
                - v_map(tcc, dtil) * ellX)
    ok = ok and (Kc - oracle_c).is_zero
    verdict(3, "lift/derivation correspondence with classical formulas", ok,
            time.monotonic() - start, 30)


def test_criterion_4_pn_equivalences():
    """Direct and bialgebroid characterizations agree on the corpus and on
    25 random pairs."""
    start = time.monotonic()
    ok = True
    corpus = [(XID, True), (J2, False), (IDENT, True), (ZERO_R, True)]
    for r, expected in corpus:
        c = PNCandidate(PI0, r)
        direct = check_pn(c).passed
        kos = kosmann_equivalence(c).passed
        ok = ok and direct == expected and kos == expected
    rng = random.Random(1004)
    for _ in range(25):
        c = PNCandidate(rnd_bivector(rng, CH2), rnd_endo(rng, CH2))
        ok = ok and check_pn(c).passed == kosmann_equivalence(c).passed
    verdict(4, "PN characterizations agree", ok, time.monotonic() - start, 60)


def test_criterion_5_concomitant_derivation_identity():
    """Lie-derivative expansion of the concomitant on 25 random triples in
    dimensions 2 and 3."""
    start = time.monotonic()
    ok = True
    rng = random.Random(1005)
    for trial in range(25):
        chart = CH2 if trial % 2 == 0 else CH3
        c = PNCandidate(rnd_bivector(rng, chart), rnd_endo(rng, chart))
        ok = ok and mm1_identity(c, rnd_vf(rng, chart)).passed
    verdict(5, "concomitant derivation identity", ok,
            time.monotonic() - start, 60)


def test_criterion_6_ln_corpus():
    """The dual-pair corpus: verdicts, induced base structure, deformation
    hierarchy, and special-case recognition."""
    start = time.monotonic()
    TM = tangent_algebroid(CH2)

    def cand(pi, r):
        return LNCandidate(TM, cotangent_of_poisson(pi), build_drT(r))

    ok = check_lnb(cand(PI0, XID)).passed
    ok = ok and check_lnb(cand(ZERO_PI, J2)).passed
    bad = check_lnb(cand(PI0, J2))
    ok = ok and not bad.passed
    ok = ok and {i.law for i in bad.failures()} == {"dual: IM symbol square"}
    pn, rep = base_pn(cand(PI0, XID))
    ok = ok and rep.passed and pn.pi.coeffs == PI0.coeffs
    _, hrep = deform_hierarchy(cand(PI0, XID), 2)
    ok = ok and hrep.passed
    ok = ok and holomorphic_detect(cand(ZERO_PI, J2)).passed
    ok = ok and not holomorphic_detect(cand(PI0, XID)).passed
    ok = ok and courant_operator(cand(ZERO_PI, J2)).square_scalar == -1
    verdict(6, "dual-pair corpus", ok, time.monotonic() - start, 60)


def test_criterion_7_bialgebroid_sensitivity():
    """The Heisenberg pair [e1,e2] = e3 (zero anchor, zero dual bracket)
    passes; changing the dual bracket to [e1*,e2*] = e1* breaks the cocycle
    condition on (e1,e2) and on no frame pair involving e3.

    In rank 2 with zero anchor, ad_x acts on the line Lambda^2 A by tr(ad_x),
    so the condition phi([x,y]) = tr(ad_x)phi(y) - tr(ad_y)phi(x) holds for
    every dual bracket phi; hence rank 3, where delta(e3) = 0 but
    -L_{e2}(e1^e2) = -e2^e3 leaves a defect on (e1,e2).
    """
    start = time.monotonic()
    ZERO = Poly.zero(CH2)
    E = FramedBundle(CH2, ("e1", "e2", "e3"))
    zrow = [[ZERO, ZERO]] * 3
    A = AlgebroidStructure(E, zrow, {(0, 1): [ZERO, ZERO, ONE]})
    Astar = AlgebroidStructure(E.dual(), zrow, {})
    ok = check_bialgebroid(A, Astar).passed
    pert = AlgebroidStructure(E.dual(), zrow, {(0, 1): [ONE, ZERO, ZERO]})
    prep = check_bialgebroid(A, pert)
    status = {i.detail: i.passed for i in prep.items
              if i.law == "cocycle condition"}
    ok = ok and status.get("(e1,e2)") is False
    ok = ok and status.get("(e1,e3)") is True
    ok = ok and status.get("(e2,e3)") is True
    verdict(7, "perturbed dual bracket breaks the cocycle on (e1,e2), not on "
            "pairs with e3", ok, time.monotonic() - start, 5)


def test_criterion_8_torsion_identity():
    """N_r equals half the self-bracket for 50 random endomorphisms."""
    start = time.monotonic()
    ok = True
    rng = random.Random(1008)
    from fractions import Fraction
    half = Fraction(1, 2)
    for trial in range(50):
        chart = CH2 if trial % 2 == 0 else CH3
        r = rnd_endo(rng, chart)
        defect = nijenhuis_torsion(r) - frolicher_nijenhuis(r, r) * half
        ok = ok and defect.is_zero
    verdict(8, "torsion equals half the self-bracket", ok,
            time.monotonic() - start, 30)


def test_criterion_9_cli_contract(tmp_path, capsys):
    """Exit statuses and byte-level determinism of the command line."""
    start = time.monotonic()
    ok = True
    for name in example_names():
        code = main(["examples", "run", name, "--format", "table"])
        capsys.readouterr()
        ok = ok and code == (1 if name == "pn-J2" else 0)
    main(["examples", "run", "pn-xid", "--format", "table"])
    first = capsys.readouterr().out
    main(["examples", "run", "pn-xid", "--format", "table"])
    ok = ok and capsys.readouterr().out == first
    ok = ok and main(["check", "/nonexistent.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    ok = ok and main(["check", str(bad)]) == 2
    heavy = tmp_path / "heavy.json"
    heavy.write_text(json.dumps({
        "chart": ["x", "y"],
        "objects": {"r": {"type": "endomorphism",
                          "matrix": [["0", "y^3"], ["x^3", "0"]]}},
        "checks": [{"check": "torsion", "endomorphism": "r"}]}))
    old = get_degree_limit()
    try:
        ok = ok and main(["--max-degree", "4", "check", str(heavy)]) == 3
    finally:
        set_degree_limit(old)
    capsys.readouterr()
    verdict(9, "CLI exit-status contract and determinism", ok,
            time.monotonic() - start, 120)
