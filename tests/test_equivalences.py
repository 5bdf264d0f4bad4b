"""The paper's equivalences as property tests on near-miss inputs.

For a Poisson bivector pi and an endomorphism r of TR^n, three checkers must
agree: ``check_pn(pi, r)``, ``check_lnb`` on (TM, T*M_pi, D^r) (the paper's
Poisson-Nijenhuis example) and ``kosmann_equivalence`` (Kosmann-Schwarzbach
1996).  The draws sit near the boundary between pass and fail: pi is 0,
symplectic or the linear Poisson structure of so(3)*, and r is a Nijenhuis
endomorphism (diagonal coordinate functions, x1 times the identity, or a
sparse constant matrix), to which half the draws add one monomial of degree
0-2 in one entry.  The result is often a torsion that is constant or zero,
where a checker that reads only part of [D^r, D^r] goes wrong.

Equivalence 5 holds for every (pi, r): each concomitant C item of
``check_pn`` is ``concomitant_C`` on a coframe pair, and the selfadjointness
item is the equality of r o pi# and pi# o r*.  ``check_pn`` reads both off a
deformed Koszul algebroid and ``concomitant_C`` forms C term by term, so
each is the other's oracle.  It runs on the near misses and on dense random
(pi, r), where r o pi# is rarely selfadjoint and pi rarely Poisson.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnlab.poly import Chart, Poly, PolyError
from lnlab.forms import DiffForm, Multivector, VForm, nijenhuis_torsion, sharp_matrix
from lnlab.gder import bracket, build_drT, dual
from lnlab.algebroid import cotangent_of_poisson, tangent_algebroid
from lnlab.lnb import LNCandidate, base_pn, check_lnb
from lnlab.matrix import mat_mul, transpose
from lnlab import pnlab
from lnlab.pnlab import PNCandidate, check_pn, concomitant_C, kosmann_equivalence

CHARTS = {n: Chart(tuple(f"x{i}" for i in range(1, n + 1))) for n in (2, 3, 4)}


@st.composite
def near_miss(draw):
    """(pi, r) on R^2, R^3 or R^4, with pi Poisson and r near a Nijenhuis r."""
    n = draw(st.sampled_from(sorted(CHARTS)))
    ch = CHARTS[n]
    one, x = Poly.const(ch, 1), [Poly.coord(ch, i) for i in range(n)]
    kinds = ["zero"] + ["symplectic"] * (n % 2 == 0) + ["so3"] * (n >= 3)
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        pi = {}
    elif kind == "symplectic":
        pi = {(i, i + 1): one for i in range(0, n, 2)}
    else:  # x1 @x2^@x3 + x2 @x3^@x1 + x3 @x1^@x2
        pi = {(1, 2): x[0], (0, 2): -x[1], (0, 1): x[2]}
    shape = draw(st.sampled_from(["diagonal", "x1 id", "constant"]))
    if shape == "diagonal":
        M = {(i, i): x[i] for i in range(n)}
    elif shape == "x1 id":
        M = {(i, i): x[0] for i in range(n)}
    else:
        entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        M = {key: Poly.const(ch, c) for key, c in draw(st.dictionaries(
            entry, st.sampled_from((-2, -1, 1, 2)), max_size=3)).items()}
    if draw(st.booleans()):  # the near miss: one monomial more in one entry
        key = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        mono = Poly.const(ch, draw(st.sampled_from((-2, -1, 1, 2))))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            mono = mono * x[i]
        M[key] = M.get(key, Poly.zero(ch)) + mono
    r = VForm(ch, 1, n, {((i,), v): p for (v, i), p in M.items() if p})
    return Multivector(ch, 2, pi), r


def _square_failures(rep) -> list[str]:
    return [i.detail for i in rep.failures() if i.law == "derivation square"]


@given(near_miss())
@settings(max_examples=120, deadline=None)
def test_pn_lnb_and_kosmann_verdicts_agree(case):
    pi, r = case
    pn = PNCandidate(pi, r)
    c = LNCandidate(tangent_algebroid(pi.chart), cotangent_of_poisson(pi), build_drT(r))
    rep = check_lnb(c)
    passed = check_pn(pn).passed
    assert rep.passed == passed
    assert kosmann_equivalence(pn).passed == passed

    # [D^r, D^r] = 2 D^{N_r}, and it is zero exactly when every derivation
    # square row passes; else every row fails, since its symbol is 2 N_r
    torsion = nijenhuis_torsion(r)
    assert bracket(c.D, c.D) == build_drT(torsion * 2)
    frame = list(c.A.bundle.frame)
    assert _square_failures(rep) == ([] if torsion.is_zero else frame)

    # the verdict does not depend on which side of the pair is the base
    swapped = check_lnb(LNCandidate(c.Astar, c.A, dual(c.D)))
    assert swapped.passed == passed
    assert _square_failures(swapped) == (
        [] if torsion.is_zero else list(c.Astar.bundle.frame))

    if passed:
        cand, pn_rep = base_pn(c)
        assert pn_rep.passed and cand.pi == pi and cand.r == r
    else:
        with pytest.raises(PolyError, match="not a Lie-Nijenhuis"):
            base_pn(c)


@st.composite
def dense_pair(draw):
    """(pi, r) on R^2, R^3 or R^4 with every entry of pi and of r an affine
    function, coefficients in [-2, 2]."""
    n = draw(st.sampled_from(sorted(CHARTS)))
    ch = CHARTS[n]
    affine = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1).map(
        lambda cs: Poly(ch, {tuple(int(i == k) for i in range(n)): c
                             for k, c in enumerate(cs, -1)}))
    pi = {(i, j): draw(affine) for i in range(n) for j in range(i + 1, n)}
    r = {((i,), v): draw(affine) for i in range(n) for v in range(n)}
    return Multivector(ch, 2, pi), VForm(ch, 1, n, r)


def _no_pair_into(*args):
    raise AssertionError("check_pn formed C through the role path")


def assert_equivalence_5(pi, r):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pnlab, "_pair_into", _no_pair_into)
        rep = check_pn(PNCandidate(pi, r))
    ch = pi.chart
    basis = [DiffForm.basis(ch, (a,)) for a in range(ch.dim)]
    pairs = [(a, b) for a in range(ch.dim) for b in range(a + 1, ch.dim)]
    items = [i for i in rep.items if i.law == "concomitant C"]
    assert [i.detail for i in items] == [f"(d{ch.coords[a]},d{ch.coords[b]})"
                                         for a, b in pairs]
    for item, (a, b) in zip(items, pairs):
        want = concomitant_C(pi, r, basis[a], basis[b])
        assert item.passed == want.is_zero
        assert item.defect == (None if want.is_zero else want)
    S, M = sharp_matrix(pi), r.matrix()
    (selfadj,) = [i for i in rep.items if i.law == "selfadjoint composite r o pi#"]
    assert selfadj.passed == (mat_mul(M, S) == mat_mul(S, transpose(M)))


@given(near_miss())
@settings(max_examples=40, deadline=None)
def test_check_pn_C_items_are_concomitant_C_on_near_misses(case):
    assert_equivalence_5(*case)


@given(dense_pair())
@settings(max_examples=40, deadline=None)
def test_check_pn_C_items_are_concomitant_C_for_dense_r(case):
    assert_equivalence_5(*case)
