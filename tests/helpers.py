"""Shared random generators for the identity tests.

The ``rnd_*`` draws use small integer coefficients and degree at most one,
which keeps intermediate expressions well inside the growth limit while still
exercising every derivative term.  The ``st_*`` Hypothesis strategies at the
end draw rational coefficients for the kernel oracles.
"""

from fractions import Fraction
from itertools import combinations, product
import random
import sys

from hypothesis import strategies as st

from lnlab import pnlab
from lnlab.poly import Chart, Poly
from lnlab.forms import (DiffForm, Multivector, VForm, _sums, _wedge_into, exterior_d,
                         interior_vvf, lie_derivative_vvf, sharp_matrix, vf_bracket, wedge)
from lnlab.gder import GenDer, build_drT, tangent_bundle
from lnlab.algebroid import AlgebroidStructure
from lnlab.matrix import mat_mul, mat_vec, transpose

CH2 = Chart(("x", "y"))
CH3 = Chart(("x", "y", "z"))


def rnd_poly(rng: random.Random, chart: Chart, lo: int = -2, hi: int = 2) -> Poly:
    terms = {(0,) * chart.dim: Fraction(rng.randint(lo, hi))}
    for i in range(chart.dim):
        exp = tuple(1 if j == i else 0 for j in range(chart.dim))
        terms[exp] = Fraction(rng.randint(lo, hi))
    return Poly(chart, terms)


def rnd_vf(rng: random.Random, chart: Chart) -> VForm:
    return VForm.section(chart, [rnd_poly(rng, chart) for _ in range(chart.dim)])


def rnd_endo(rng: random.Random, chart: Chart) -> VForm:
    n = chart.dim
    return VForm(chart, 1, n, {((i,), j): rnd_poly(rng, chart)
                               for i in range(n) for j in range(n)})


def rnd_one_form(rng: random.Random, chart: Chart) -> DiffForm:
    return DiffForm(chart, 1, {(i,): rnd_poly(rng, chart)
                               for i in range(chart.dim)})


def rnd_form(rng: random.Random, chart: Chart, degree: int) -> DiffForm:
    from itertools import combinations
    return DiffForm(chart, degree,
                    {idx: rnd_poly(rng, chart)
                     for idx in combinations(range(chart.dim), degree)})


def rnd_mv(rng: random.Random, chart: Chart, degree: int) -> Multivector:
    from itertools import combinations
    return Multivector(chart, degree,
                       {idx: rnd_poly(rng, chart)
                        for idx in combinations(range(chart.dim), degree)})


def rnd_bivector(rng: random.Random, chart: Chart) -> Multivector:
    return rnd_mv(rng, chart, 2)


def rnd_vvform(rng: random.Random, chart: Chart, degree: int) -> VForm:
    from itertools import combinations
    n = chart.dim
    return VForm(chart, degree, n,
                 {(idx, v): rnd_poly(rng, chart)
                  for idx in combinations(range(n), degree) for v in range(n)})


# -- Hypothesis strategies for the kernel oracles ----------------------------
# Rational coefficients over mixed denominators on monomials of degree <= 2,
# so products need a common denominator and every derivative term survives.

def _monomials(chart: Chart) -> list[tuple[int, ...]]:
    n = chart.dim
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return [(0,) * n] + unit + [tuple(a + b for a, b in zip(unit[0], u)) for u in unit]


def st_polys(chart: Chart):
    coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 6)))
    return st.dictionaries(st.sampled_from(_monomials(chart)), coeff,
                           min_size=1, max_size=3).map(lambda t: Poly(chart, t))


def st_forms(chart: Chart, degree: int, cls=DiffForm):
    """Forms (or, with ``cls=Multivector``, multivectors) with one to three
    entries (zero above dim)."""
    keys = list(combinations(range(chart.dim), degree))
    if not keys:
        return st.just(cls(chart, degree))
    return st.dictionaries(st.sampled_from(keys), st_polys(chart), min_size=1,
                           max_size=3).map(lambda c: cls(chart, degree, c))


def st_vvforms(chart: Chart, degree: int, vals: int):
    keys = [(idx, v) for idx in combinations(range(chart.dim), degree)
            for v in range(vals)]
    if not keys:
        return st.just(VForm(chart, degree, vals))
    return st.dictionaries(st.sampled_from(keys), st_polys(chart), min_size=1,
                           max_size=3).map(lambda c: VForm(chart, degree, vals, c))


# -- per-decomposable references for the fused kernels -----------------------

def interior_vector(comps, a):
    """Interior product i_X a for a vector field given by its components;
    for a multivector, contraction with the 1-form of those components."""
    out = {}
    for idx, p in a.coeffs.items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            out[rest] = out.get(rest, Poly.zero(a.chart)) + p * comps[i] * (-1) ** pos
    return type(a)(a.chart, max(a.degree - 1, 0), out)


def derivative(comps, p: Poly) -> Poly:
    """X(p) = sum_i X^i d_i p for the vector field with components ``comps``."""
    return sum((c * p.diff(i) for i, c in enumerate(comps) if c), Poly.zero(p.chart))


def pairing(a: DiffForm, X: VForm) -> Poly:
    """<a, X> for a 1-form and a vector field."""
    comps = X.section_components()
    return sum((a.coeff((i,)) * comps[i] for i in range(a.chart.dim)), Poly.zero(a.chart))


def ref_sort_index(idx):
    """``sort_index`` by insertion sort, counting transpositions; None on a
    repeated index."""
    lst, sign = list(idx), 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign, j = -sign, j - 1
    if any(a == b for a, b in zip(lst, lst[1:])):
        return None
    return tuple(lst), sign


def ref_interior_vvf(K: VForm, a: DiffForm) -> DiffForm:
    """i_K a = sum over entries p dx_idx (x) d/dx_v of dx_idx ^ i_{p d/dx_v} a."""
    chart = K.chart
    deg = max(K.degree + a.degree - 1, 0)
    out = DiffForm.zero(chart, deg)
    if a.degree == 0:
        return out
    for (idx, v), p in K.coeffs.items():
        comps = [Poly.zero(chart)] * chart.dim
        comps[v] = p
        out = out + wedge(DiffForm.basis(chart, idx), interior_vector(comps, a))
    return out


def ref_lie(K: VForm, a: DiffForm) -> DiffForm:
    """L_K a = [i_K, d] a = i_K da - (-1)^(k-1) d i_K a, through
    ``ref_interior_vvf`` and ``exterior_d``."""
    first = ref_interior_vvf(K, exterior_d(a))
    if a.degree == 0:
        return first
    second = exterior_d(ref_interior_vvf(K, a))
    return first + second if (K.degree - 1) % 2 else first - second


def ref_wedge_scalar(a: DiffForm, K: VForm) -> VForm:
    return VForm.from_components([wedge(a, K.component(v)) for v in range(K.vals)],
                                 a.degree + K.degree)


def wedge_scalar(K: VForm, a: DiffForm) -> VForm:
    """a ^ K, value slot untouched, through ``_wedge_into``: the fused kernel
    the derivations apply, which ``ref_wedge_scalar`` checks."""
    out: dict = {}
    _wedge_into(out, a, K)
    return VForm(K.chart, a.degree + K.degree, K.vals, _sums(out))


def ref_insert_vector(K: VForm, X: VForm) -> VForm:
    """i_X K one value slot at a time, through ``interior_vector``."""
    comps = X.section_components()
    return VForm.from_components([interior_vector(comps, K.component(v))
                                  for v in range(K.vals)], K.degree - 1)


def ref_schouten(P: Multivector, Q: Multivector) -> Multivector:
    """Decomposable expansion, for degrees p, q >= 1, through ``vf_bracket``
    and ``wedge`` only: the monomial c xi_I is X_0 ^ .. ^ X_(p-1) with
    X_0 = c d/dx_(I_0) and X_s = d/dx_(I_s), and

        [X_0^..^X_(p-1), Y_0^..^Y_(q-1)]
            = sum_(s,t) (-1)^(s+t) [X_s, Y_t] ^ X_0..^X_s..X_(p-1)
                                              ^ Y_0..^Y_t..Y_(q-1).
    """
    chart = P.chart
    one = Poly.const(chart, 1)

    def fields(idx, c):
        out = []
        for s, i in enumerate(idx):
            comps = [Poly.zero(chart)] * chart.dim
            comps[i] = c if s == 0 else one
            out.append(VForm.section(chart, comps))
        return out

    def wedge_all(vfs):
        acc = Multivector(chart, 0, {(): one})
        for X in vfs:
            comps = X.section_components()
            acc = wedge(acc, Multivector(chart, 1, {(i,): p for i, p in
                                                    enumerate(comps) if p}))
        return acc

    out = Multivector.zero(chart, P.degree + Q.degree - 1)
    for I, c in P.coeffs.items():
        Xs = fields(I, c)
        for J, e in Q.coeffs.items():
            Ys = fields(J, e)
            for s, t in product(range(len(Xs)), range(len(Ys))):
                rest = Xs[:s] + Xs[s + 1:] + Ys[:t] + Ys[t + 1:]
                term = wedge_all([vf_bracket(Xs[s], Ys[t])] + rest)
                out = out + term * (-1) ** (s + t)
    return out


def ref_concomitant_C(pi: Multivector, r: VForm, a: DiffForm,
                      b: DiffForm) -> DiffForm:
    """C(a, b) = [a, b]_{r o pi} - [r*a, b]_pi - [a, r*b]_pi + r*([a, b]_pi),
    composed bracket by bracket with [a, b]_M = L_{M a} b - i_{M b} da
    through ``lie_derivative_vvf`` and ``interior_vector``."""
    n = a.chart.dim

    def comps(f):
        return [f.coeff((i,)) for i in range(n)]

    def map_bracket(M, a, b):
        Ma = VForm.section(a.chart, mat_vec(M, comps(a)))
        return (lie_derivative_vvf(Ma, b)
                - interior_vector(mat_vec(M, comps(b)), exterior_d(a)))

    S = sharp_matrix(pi)
    B = mat_mul(r.matrix(), S)
    return (map_bracket(B, a, b)
            - map_bracket(S, interior_vvf(r, a), b)
            - map_bracket(S, a, interior_vvf(r, b))
            + interior_vvf(r, map_bracket(S, a, b)))



# -- pair-by-pair references for the algebroid checkers ----------------------
# Each returns (law, detail, passed, defect) per item, with every bracket,
# anchor image and vector-field bracket recomputed through the public API.

def anchor_of(A, section: VForm) -> VForm:
    """rho applied to a polynomial section of A; a vector field."""
    comps = section.section_components()
    return VForm.section(A.chart, [
        sum((s * row[i] for s, row in zip(comps, A.anchor) if s and row[i]), Poly.zero(A.chart))
        for i in range(A.chart.dim)])


def frame_bracket(A, a: int, b: int) -> list[Poly]:
    """The components of [u_a, u_b] for a < b, read off the structure table."""
    return A.structure.get((a, b), [Poly.zero(A.chart)] * A.bundle.rank)


def section_bracket(A, s: VForm, t: VForm) -> VForm:
    """[s, t] for polynomial sections of A, via bilinearity and Leibniz:
    sum_{a<b} (s_a t_b - s_b t_a) [u_a, u_b] + rho(s)(t) - rho(t)(s), on
    plain ``Poly`` arithmetic."""
    sc, tc = s.section_components(), t.section_components()
    rho_s, rho_t = (anchor_of(A, x).section_components() for x in (s, t))
    out = [derivative(rho_s, q) - derivative(rho_t, p) for p, q in zip(sc, tc)]
    for (a, b), comps in A.structure.items():
        f = sc[a] * tc[b] - sc[b] * tc[a]
        if f:
            out = [o + f * c if c else o for o, c in zip(out, comps)]
    return VForm.section(A.chart, out)


def apply_matrix(M, s: VForm) -> VForm:
    """The section M s for a frame matrix M."""
    return VForm.section(s.chart, mat_vec(M, s.section_components()))


def ref_deform(A, M):
    """``deform_algebroid`` on frame pairs through ``section_bracket``:
    [a, b]_M = [M a, b] + [a, M b] - M([a, b]), anchor rho o M."""
    rank = A.bundle.rank
    frames = [A.bundle.frame_section(a) for a in range(rank)]
    structure = {}
    for a in range(rank):
        for b in range(a + 1, rank):
            val = (section_bracket(A, apply_matrix(M, frames[a]), frames[b])
                   + section_bracket(A, frames[a], apply_matrix(M, frames[b]))
                   - apply_matrix(M, section_bracket(A, frames[a], frames[b])))
            structure[(a, b)] = val.section_components()
    return AlgebroidStructure(A.bundle, mat_mul(transpose(M), A.anchor), structure)


def ref_torsion(A, M) -> list[tuple]:
    """``algebroid_torsion``'s items, N(a, b) = [M a, M b] - M([a, b]_M) on
    frame pairs, through ``section_bracket`` and ``ref_deform``."""
    rank, names = A.bundle.rank, A.bundle.frame
    frames = [A.bundle.frame_section(a) for a in range(rank)]
    deformed = ref_deform(A, M)
    items = []
    for a in range(rank):
        for b in range(a + 1, rank):
            defect = (section_bracket(A, apply_matrix(M, frames[a]), apply_matrix(M, frames[b]))
                      - apply_matrix(M, section_bracket(deformed, frames[a], frames[b])))
            items.append(("torsion component", f"({names[a]},{names[b]})", defect.is_zero,
                          None if defect.is_zero else defect))
    return items


def ref_validate(A) -> list[tuple]:
    """``AlgebroidStructure.validate`` with each frame bracket formed anew
    for every pair and triple that reads it."""
    rank, names = A.bundle.rank, A.bundle.frame
    frames = [A.bundle.frame_section(a) for a in range(rank)]
    items = []

    def item(law, defect, detail):
        items.append((law, detail, defect.is_zero, None if defect.is_zero else defect))

    def br(x, y, z):
        """[[u_x, u_y], u_z]"""
        return section_bracket(A, section_bracket(A, frames[x], frames[y]), frames[z])
    for a in range(rank):
        for b in range(a + 1, rank):
            item("anchor morphism",
                 anchor_of(A, section_bracket(A, frames[a], frames[b]))
                 - vf_bracket(anchor_of(A, frames[a]), anchor_of(A, frames[b])),
                 f"({names[a]},{names[b]})")
    for a in range(rank):
        for b in range(a + 1, rank):
            for c in range(b + 1, rank):
                item("Jacobi identity", br(a, b, c) + br(b, c, a) + br(c, a, b),
                     f"({names[a]},{names[b]},{names[c]})")
    return items


def ref_check_im(A, D: GenDer) -> list[tuple]:
    """``check_im`` with every section bracket, anchor image, contraction and
    vector-field bracket recomputed for each (a, b, X)."""
    chart, rank, n = A.chart, A.bundle.rank, A.chart.dim
    names = A.bundle.frame
    frames = [A.bundle.frame_section(a) for a in range(rank)]
    fields = [tangent_bundle(chart).frame_section(i) for i in range(n)]
    Du, lf = D.d_frame, D.l_frame
    items = []

    def item(law, defect, detail):
        items.append((law, detail, defect.is_zero, None if defect.is_zero else defect))
    for a in range(rank):
        for b in range(a + 1, rank):
            ab = section_bracket(A, frames[a], frames[b])
            for i, X in enumerate(fields):
                item("IM bracket compatibility",
                     D.extend(ab).insert_vector(X)
                     - section_bracket(A, frames[a], Du[b].insert_vector(X))
                     + section_bracket(A, frames[b], Du[a].insert_vector(X))
                     - Du[a].insert_vector(vf_bracket(anchor_of(A, frames[b]), X))
                     + Du[b].insert_vector(vf_bracket(anchor_of(A, frames[a]), X)),
                     f"({names[a]},{names[b]};d/d{chart.coords[i]})")
            item("IM symbol-bracket compatibility",
                 D.apply_l(ab) - section_bracket(A, frames[a], lf[b])
                 + Du[a].insert_vector(anchor_of(A, frames[b])),
                 f"({names[a]},{names[b]})")
    drT = build_drT(D.r)
    for a in range(rank):
        for i, X in enumerate(fields):
            item("IM anchor intertwining",
                 drT.extend(anchor_of(A, frames[a])).insert_vector(X)
                 - anchor_of(A, Du[a].insert_vector(X)),
                 f"({names[a]};d/d{chart.coords[i]})")
    im4 = []
    for a in range(rank):
        r_rho = D.r.insert_vector(anchor_of(A, frames[a])).section_components()
        rho_l = anchor_of(A, lf[a]).section_components()
        for j, (p, q) in enumerate(zip(r_rho, rho_l)):
            p = p - q
            if not p.is_zero:
                im4.append(((a, j), p))
    items.append(("IM symbol square", "r o rho - rho o l", not im4, im4 or None))
    return items


# -- equality of derivations --------------------------------------------------

def gd_equal(D1: GenDer, D2: GenDer) -> bool:
    if D1.degree != D2.degree:
        return False
    if any(not (a - b).is_zero for a, b in zip(D1.d_frame, D2.d_frame)):
        return False
    if D1.l_frame is not None:
        if any(not (a - b).is_zero for a, b in zip(D1.l_frame, D2.l_frame)):
            return False
    return (D1.r - D2.r).is_zero


def gd_is_zero(D: GenDer) -> bool:
    return (all(v.is_zero for v in D.d_frame) and D.r.is_zero
            and (D.l_frame is None or all(v.is_zero for v in D.l_frame)))


def decimal(n: int) -> str:
    """Decimal digits of a nonnegative int of any size, joined from 100-digit
    pieces that each stay inside the interpreter's int/str digit limit."""
    pieces = []
    while n >= 10 ** 100:
        n, low = divmod(n, 10 ** 100)
        pieces.append(f"{low:0100d}")
    return str(n) + "".join(reversed(pieces))


def codes_entered(fn, *args) -> tuple:
    """(``fn(*args)``, the code objects of every Python function it enters),
    recorded with a profile hook, so a function counts under any name it is
    bound to."""
    seen = set()
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code) if event == "call" else None)
    try:
        return fn(*args), seen
    finally:
        sys.setprofile(previous)


def shift_lie_frames(mp, shift) -> list:
    """Patch ``pnlab._lie_frames`` through the monkeypatch ``mp`` so that it
    adds the constant ``shift(chart)``, written as a matrix, to the matrix of
    [X, r] when that is a tangent-valued 1-form, or to the sharp matrix of
    [X, pi] when it is a bivector.  Returns the list of the charts the
    patched seam was entered with, one per call."""
    frames, entered = pnlab._lie_frames, []

    def shifted(chart, *args):
        entered.append(chart)
        XS, XM = frames(chart, *args)
        s = shift(chart)
        if isinstance(s, VForm):
            return XS, [[p + q for p, q in zip(*rows)] for rows in zip(XM, s.matrix())]
        return [[p + q for p, q in zip(*rows)] for rows in zip(XS, sharp_matrix(s))], XM
    mp.setattr(pnlab, "_lie_frames", shifted)
    return entered
