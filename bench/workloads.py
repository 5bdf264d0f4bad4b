"""Seeded workloads and their independent correctness checks.

Every workload is a list of items.  An item holds inputs built at set-up
time, a ``compute`` callable that produces the program's answer (this is the
timed verdict), and a ``check`` that decides, in this file's own code, whether
the answer is right.  The checks never use the arithmetic under test: results
are read out as plain ``{exponent: Fraction}`` maps and compared here, so a
defect counts as zero only when the two sides are equal term by term.

The random generators reproduce the distributions of the identity tests
(integer coefficients in [-2, 2] on the constant and each linear monomial)
without importing the test suite, so a test edit cannot move the benchmark.

Acceptance criterion 7 (the rank-2 cocycle perturbation) is left out of every
workload: it is mathematically unattainable at this commit.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from lnlab import cli, forms, gder, pnlab, poly

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

# -- generator parameters (see README.md for why each workload exists) -------

# identities: one draw holds the items of acceptance criteria 1, 2, 5 and 8
# in their proportions: 50 dual pairs with the degree pairs cycled 1:1:1, 50
# drT pairs, 25 mm1 triples and 50 torsion endomorphisms; mm1 and torsion
# alternate dimensions 2 and 3, starting with 2.  IDENTITY_SETS fresh draws
# of that set make one pass, so that the quantiles rest on 350 distinct inputs
# and move little from seed to seed.
# Tiny inputs: degree <= 1, integer coefficients in [COEFF_LO, COEFF_HI].
COEFF_LO, COEFF_HI = -2, 2
DUAL_ITEMS, DRT_ITEMS, MM1_ITEMS, TORSION_ITEMS = 50, 50, 25, 50
DUAL_DEGREES = ((0, 0), (0, 1), (1, 1))
IDENTITY_SETS = 2

# dense: dimension 3, coefficients dense homogeneous polynomials of degree 3
# or 4 with rational coefficients: numerators in [-DENSE_NUM, DENSE_NUM]
# without 0, denominators drawn from DENSE_DENOMS (mixed, so Fraction gcds do
# real work).  Both kinds, and both degrees within a kind, in equal numbers:
# DENSE_EACH items of each of the four (kind, degree) pairs per pass.
DENSE_NUM = 9
DENSE_DENOMS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12)
DENSE_EACH = 5

# scenes: every catalog scene that has a golden, once per pass, in an order
# shuffled by the seed (the catalog itself takes no seed).  Exit codes follow
# the README and criterion 9: pn-J2 fails, every other scene passes.
FAILING_SCENES = {"pn-J2"}

CH2 = poly.Chart(("x", "y"))
CH3 = poly.Chart(("x", "y", "z"))


@dataclass
class Item:
    kind: str
    compute: Callable[[], Any]
    check: Callable[[Any], "Verdict"]


@dataclass
class Verdict:
    ok: bool
    nontrivial: bool | None  # None: the item exposes no side to inspect
    why: str = ""


# -- plain read-outs ---------------------------------------------------------


def plain_poly(p) -> dict:
    return {e: Fraction(c) for e, c in p.terms.items() if c != 0}


def plain_coeffs(coeffs: dict) -> dict:
    out = {}
    for k, p in coeffs.items():
        q = plain_poly(p)
        if q:
            out[k] = q
    return out


def plain_vform(v) -> tuple:
    return (v.chart.coords, v.degree, v.vals, plain_coeffs(v.coeffs))


def plain_mv(m) -> tuple:
    return (m.chart.coords, m.degree, plain_coeffs(m.coeffs))


def plain_gder(D) -> tuple:
    lf = None if D.l_frame is None else [plain_vform(v) for v in D.l_frame]
    return (D.bundle.frame, D.degree, [plain_vform(v) for v in D.d_frame],
            lf, plain_vform(D.r))


def scaled(coeffs: dict, s: Fraction) -> dict:
    return {k: {e: c * s for e, c in p.items()} for k, p in coeffs.items()}


def signed_sum(terms, signs) -> tuple:
    """The sum of forms with integer signs, as (heads, plain coefficients)."""
    heads = sorted({(f.chart.coords, f.degree) for f in terms})
    total: dict = {}
    for f, sign in zip(terms, signs):
        for k, p in plain_coeffs(f.coeffs).items():
            q = total.setdefault(k, {})
            for e, c in p.items():
                q[e] = q.get(e, 0) + sign * c
    coeffs = {}
    for k, p in total.items():
        q = {e: c for e, c in p.items() if c != 0}
        if q:
            coeffs[k] = q
    return heads, coeffs


def _same(lhs, rhs, what: str) -> Verdict:
    if lhs == rhs:
        return Verdict(True, None)
    return Verdict(False, None, f"{what}: the two sides differ")


# -- generators matching the identity tests ----------------------------------


def rnd_poly(rng: random.Random, chart) -> Any:
    n = chart.dim
    terms = {(0,) * n: Fraction(rng.randint(COEFF_LO, COEFF_HI))}
    for i in range(n):
        terms[tuple(1 if j == i else 0 for j in range(n))] = Fraction(
            rng.randint(COEFF_LO, COEFF_HI))
    return poly.Poly(chart, terms)


def rnd_vf(rng, chart):
    return forms.VForm.section(chart, [rnd_poly(rng, chart) for _ in range(chart.dim)])


def rnd_endo(rng, chart, entry=rnd_poly):
    n = chart.dim
    return forms.VForm(chart, 1, n, {((i,), j): entry(rng, chart)
                                     for i in range(n) for j in range(n)})


def rnd_bivector(rng, chart, entry=rnd_poly):
    n = chart.dim
    return forms.Multivector(chart, 2, {(i, j): entry(rng, chart)
                                        for i in range(n) for j in range(i + 1, n)})


def rnd_gder(rng, degree: int):
    TM = gder.tangent_bundle(CH2)
    if degree == 0:
        return gder.GenDer(TM, 0, [rnd_vf(rng, CH2) for _ in range(2)], None,
                           rnd_vf(rng, CH2))
    return gder.GenDer(TM, 1, [rnd_endo(rng, CH2) for _ in range(2)],
                       [rnd_vf(rng, CH2) for _ in range(2)], rnd_endo(rng, CH2))


def dense_poly(degree: int) -> Callable:
    monomials = [e for e in itertools.product(range(degree + 1), repeat=3)
                 if sum(e) == degree]

    def draw(rng: random.Random, chart):
        return poly.Poly(chart, {
            e: Fraction(rng.choice([k for k in range(-DENSE_NUM, DENSE_NUM + 1) if k]),
                        rng.choice(DENSE_DENOMS))
            for e in monomials})
    return draw


# -- item kinds --------------------------------------------------------------

HALF = Fraction(1, 2)


def torsion_item(r) -> Item:
    """N_r = 1/2 [r, r]_FN."""
    def compute():
        return forms.nijenhuis_torsion(r), forms.frolicher_nijenhuis(r, r)

    def check(out) -> Verdict:
        N, F = plain_vform(out[0]), plain_vform(out[1])
        v = _same(N[3], scaled(F[3], HALF), "N_r - [r,r]/2")
        v.ok = v.ok and N[:3] == F[:3]
        v.nontrivial = bool(F[3])
        return v
    return Item("torsion", compute, check)


def dual_item(D1, D2) -> Item:
    """dual is an involution and a bracket homomorphism."""
    def compute():
        return (gder.dual(gder.dual(D1)),
                gder.dual(gder.bracket(D1, D2)),
                gder.bracket(gder.dual(D1), gder.dual(D2)))

    def check(out) -> Verdict:
        v = _same(plain_gder(out[0]), plain_gder(D1), "dual(dual(D1)) - D1")
        if v.ok:
            v = _same(plain_gder(out[1]), plain_gder(out[2]),
                      "dual[D1,D2] - [dual D1, dual D2]")
        v.nontrivial = bool(plain_vform(out[0].r)[3]) or any(
            plain_vform(d)[3] for d in out[0].d_frame)
        return v
    return Item("dual", compute, check)


def drT_item(r1, r2) -> Item:
    """r -> D^{r,T} intertwines the Froelicher-Nijenhuis bracket."""
    def compute():
        return (gder.bracket(gder.build_drT(r1), gder.build_drT(r2)),
                gder.build_drT(forms.frolicher_nijenhuis(r1, r2)))

    def check(out) -> Verdict:
        lhs, rhs = plain_gder(out[0]), plain_gder(out[1])
        v = _same(lhs, rhs, "[D^r1, D^r2] - D^[r1,r2]")
        v.nontrivial = bool(rhs[4][3])
        return v
    return Item("drT", compute, check)


def mm1_item(c, X) -> Item:
    """The concomitant Lie-derivative identity of ``mm1_identity``,

        L_X C(a,b) - C(L_X a, b) - C(a, L_X b) = C_[X,pi](a,b) + C_pi,[X,r](a,b),

    for every coframe pair (a, b).  The five terms are built from pnlab's and
    forms' public pieces; the two sides are summed here on plain read-outs."""
    chart = c.pi.chart
    n = chart.dim

    def compute():
        C, L = pnlab.concomitant_C, forms.lie_derivative_vvf
        Xpi = forms.schouten(pnlab.X_to_mv(X), c.pi)
        Xr = forms.frolicher_nijenhuis(X, c.r)
        out = []
        for a in range(n):
            for b in range(a + 1, n):
                da = forms.DiffForm.basis(chart, (a,))
                db = forms.DiffForm.basis(chart, (b,))
                out.append(((L(X, C(c.pi, c.r, da, db)),
                             C(c.pi, c.r, L(X, da), db),
                             C(c.pi, c.r, da, L(X, db))),
                            (C(Xpi, c.r, da, db), C(c.pi, Xr, da, db))))
        return out

    def check(out) -> Verdict:
        if len(out) != n * (n - 1) // 2:
            return Verdict(False, None, "mm1: wrong number of coframe pairs")
        v = Verdict(True, False)
        for lhs_terms, rhs_terms in out:
            lhs = signed_sum(lhs_terms, (1, -1, -1))
            rhs = signed_sum(rhs_terms, (1, 1))
            w = _same(lhs, rhs, "mm1 lhs - rhs")
            v.ok = v.ok and w.ok
            v.why = v.why or w.why
            v.nontrivial = v.nontrivial or bool(rhs[1])
        return v
    return Item("mm1", compute, check)


def schouten_item(P, Q) -> Item:
    """[P, Q] = [Q, P] for bivectors."""
    def compute():
        return forms.schouten(P, Q), forms.schouten(Q, P)

    def check(out) -> Verdict:
        a, b = plain_mv(out[0]), plain_mv(out[1])
        v = _same(a, b, "[P,Q] - [Q,P]")
        v.nontrivial = bool(a[2])
        return v
    return Item("schouten", compute, check)


# -- workloads ---------------------------------------------------------------


def identities(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for _ in range(IDENTITY_SETS):
        items += criteria_set(rng)
    rng.shuffle(items)
    return items


def criteria_set(rng: random.Random) -> list[Item]:
    charts = (CH2, CH3)
    items = []
    for trial in range(DUAL_ITEMS):
        k1, k2 = DUAL_DEGREES[trial % 3]
        items.append(dual_item(rnd_gder(rng, k1), rnd_gder(rng, k2)))
        items[-1].kind = f"dual{k1}{k2}"
    for _ in range(DRT_ITEMS):
        items.append(drT_item(rnd_endo(rng, CH2), rnd_endo(rng, CH2)))
    for trial in range(MM1_ITEMS):
        ch = charts[trial % 2]
        c = pnlab.PNCandidate(rnd_bivector(rng, ch), rnd_endo(rng, ch))
        items.append(mm1_item(c, rnd_vf(rng, ch)))
        items[-1].kind = f"mm1-dim{ch.dim}"
    for trial in range(TORSION_ITEMS):
        ch = charts[trial % 2]
        items.append(torsion_item(rnd_endo(rng, ch)))
        items[-1].kind = f"torsion-dim{ch.dim}"
    return items


def dense(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for _ in range(DENSE_EACH):
        for degree in (3, 4):
            entry = dense_poly(degree)
            items.append(schouten_item(rnd_bivector(rng, CH3, entry),
                                       rnd_bivector(rng, CH3, entry)))
            items[-1].kind = f"schouten-deg{degree}"
            items.append(torsion_item(rnd_endo(rng, CH3, entry)))
            items[-1].kind = f"torsion-deg{degree}"
    rng.shuffle(items)
    return items


def load_goldens() -> dict[str, bytes]:
    out = {}
    for fname in sorted(os.listdir(GOLDEN_DIR)):
        if fname.endswith(".txt"):
            with open(os.path.join(GOLDEN_DIR, fname), "rb") as fh:
                out[fname[:-4]] = fh.read()
    return out


def run_scene(name: str) -> tuple[int, bytes]:
    """``lnlab examples run <name> --format table`` in-process.

    ``--max-degree`` sets a process-wide bound in this version, so the bound
    is restored after every call to keep one call from leaking into the next.
    """
    out, err = io.StringIO(), io.StringIO()
    limit = poly.get_degree_limit()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["examples", "run", name, "--format", "table"])
    finally:
        poly.set_degree_limit(limit)
    return code, out.getvalue().encode()


def scene_item(name: str, golden: bytes) -> Item:
    expected = 1 if name in FAILING_SCENES else 0

    def check(out) -> Verdict:
        code, text = out
        if code != expected:
            return Verdict(False, None, f"{name}: exit {code}, expected {expected}")
        if text != golden:
            return Verdict(False, None, f"{name}: table differs from the golden")
        return Verdict(True, None)
    return Item(name, lambda: run_scene(name), check)


def scenes(seed: int, goldens: dict[str, bytes]) -> list[Item]:
    """One run of every scene with a golden, in an order shuffled by the seed."""
    names = sorted(goldens)
    random.Random(seed).shuffle(names)
    return [scene_item(n, goldens[n]) for n in names]
