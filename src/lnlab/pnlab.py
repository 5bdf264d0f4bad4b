"""Poisson-Nijenhuis verification.

A candidate is a bivector pi and an endomorphism r on the same chart.  The
module computes the compatibility concomitants exactly, decides the PN
property, and cross-checks it against the bialgebroid characterization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Chart, Poly, PolyError, _Sum
from .forms import (DiffForm, Multivector, VForm, _check_tangent, _lie_into,
                    _on_scalar, _partials, _symbol_slots, bivector_from_sharp,
                    frolicher_nijenhuis, interior_vvf, lie_derivative_vvf,
                    nijenhuis_torsion, schouten, sharp, sharp_matrix)
from .algebroid import (_cocycle, cotangent_of_poisson, deform_algebroid,
                        tangent_algebroid)
from .gder import tangent_bundle
from .matrix import _dot, _dot_into, identity, mat_mul, mat_vec, transpose
from .report import CheckReport

__all__ = [
    "PNCandidate",
    "concomitants",
    "concomitant_C",
    "concomitant_R",
    "check_pn",
    "kosmann_equivalence",
    "mm1_identity",
    "hierarchy",
]


@dataclass
class PNCandidate:
    """A bivector field and a tangent endomorphism on one chart."""

    pi: Multivector
    r: VForm

    def __post_init__(self) -> None:
        if self.pi.chart != self.r.chart:
            raise PolyError("bivector and endomorphism live on different charts")
        if self.pi.degree != 2 or self.r.degree != 1 or self.r.vals != self.r.chart.dim:
            raise PolyError("need a bivector and a tangent-valued 1-form")

    @property
    def chart(self) -> Chart:
        return self.pi.chart


def _comps(a: DiffForm) -> list[Poly]:
    z = Poly.zero(a.chart)
    return [a.coeffs.get((i,), z) for i in range(a.chart.dim)]


def _grad(comps: list[Poly]) -> list[list[Poly]]:
    """g[j][k] = d_k comps[j]."""
    return [[p.diff(k) if p else p for k in range(p.chart.dim)] for p in comps]


def _curl(comps: list[Poly]) -> list[list[Poly]]:
    """c[i][k] = d_i comps[k] - d_k comps[i], the components of d(comps)."""
    g = _grad(comps)
    c = [[Poly.zero(p.chart)] * len(comps) for p in comps]
    for i in range(len(comps)):
        for k in range(i + 1, len(comps)):
            c[i][k] = g[k][i] - g[i][k]
            c[k][i] = -c[i][k]
    return c


def _dot_on(idx: list[int], xs: list[Poly], ys: list[Poly]) -> Poly:
    """The sum of xs[i] ys[i] over the indices idx, a support of xs or ys."""
    acc = _Sum(xs[0].chart)
    for i in idx:
        acc.add(xs[i], ys[i])
    return acc.poly()


def _support(v: list[Poly]) -> list[int]:
    return [i for i, p in enumerate(v) if p]


def _prep(pi: Multivector, r: VForm):
    """(pi#, r, r*) as matrices, read by every concomitant of (pi, r)."""
    M = r.matrix()
    return sharp_matrix(pi), M, transpose(M)


def _core(prep, v: list[Poly]):
    """(v, r*v, pi# v) for the components v of a form; the zero components
    of v are skipped once for both images.  For a coordinate covector dx_a
    the images are column a of r* and of pi#, read with no product."""
    S, _, Mt = prep
    nz = _support(v)
    if len(nz) == 1 and v[nz[0]] == 1:
        a = nz[0]
        return v, [row[a] for row in Mt], [row[a] for row in S]
    return (v, [_dot_on(nz, row, v) for row in Mt],
            [_dot_on(nz, row, v) for row in S])


def _U(prep, core) -> list[Poly]:
    """(r pi# - pi# r*) v from the core (v, r*v, pi# v)."""
    S, M, _ = prep
    _, rv, pv = core
    return [x - y for x, y in zip(mat_vec(M, pv), mat_vec(S, rv))]


def _a_more(prep, core):
    """What C(a, .) reads of a only when a or b is not constant: U, (grad U)^T, da."""
    U = _U(prep, core)
    return U, transpose(_grad(U)), _curl(core[0])


def _b_more(prep, core):
    """What C(., b) reads of b only when a or b is not constant: V and grad b."""
    return _U(prep, core), _grad(core[0])


def _constant(v: list[Poly]) -> bool:
    return not any(p.total_degree() for p in v)


def _a_role(prep, core):
    """What C(a, .) reads of a: its core, ``_a_more`` (None for a constant
    a), (grad pi# a)^T and d(r*a)."""
    more = None if _constant(core[0]) else _a_more(prep, core)
    return core, more, transpose(_grad(core[2])), _curl(core[1])


def _b_role(prep, core):
    """What C(., b) reads of b: its core, ``_b_more`` (None for a constant
    b) and grad r*b."""
    return core, None if _constant(core[0]) else _b_more(prep, core), _grad(core[1])


def _pair(chart: Chart, prep, a_role, b_role) -> DiffForm:
    """C(a, b) from the role data of a and b (see ``concomitant_C``)."""
    sums = [_Sum(chart) for _ in range(chart.dim)]
    _pair_into(sums, prep, a_role, b_role)
    return DiffForm._trusted(chart, 1, {(k,): acc.poly() for k, acc in enumerate(sums)})


def _pair_into(sums: list[_Sum], prep, a_role, b_role, sign: int = 1) -> None:
    """Add ``sign * C(a, b)`` into the n sums, one per component, from the
    role data of a and b."""
    (_, ra, pa), a_more, dpat, dra = a_role
    (bv, rb, pb), b_more, drb = b_role
    constant = a_more is None and b_more is None
    if constant:
        # d_k <b, U> stands for every term that reads U, V, da or db
        nz = _support(bv)
        ab = [_dot_on(nz, bv, row) for row in dpat]
        f = _Sum(sums[0].chart)
        _dot_into(f, rb, pa)
        _dot_into(f, pb, ra)
        f = f.poly()
    else:
        U, dUt, da = a_more or _a_more(prep, a_role[0])
        V, db = b_more or _b_more(prep, b_role[0])
        ab = [_dot(pa + bv + pb, db[v] + dpat[v] + da[v]) for v in range(len(bv))]
        pos = U + bv + V
    # the products of r*([a, b]_pi) go in first for every k, which fixes
    # the product that a degree-bound error reports
    for acc, row in zip(sums, prep[2]):
        _dot_into(acc, row, ab, sign)
    neg = pa + rb + pb
    for k, acc in enumerate(sums):
        if constant:
            acc.add(f.diff(k), None, sign)
        else:
            _dot_into(acc, pos, db[k] + dUt[k] + da[k], sign)
        _dot_into(acc, neg, drb[k] + dpat[k] + dra[k], -sign)


def concomitant_C(pi: Multivector, r: VForm, a: DiffForm, b: DiffForm) -> DiffForm:
    """The 1-form concomitant

        C(a, b) = [a, b]_{r o pi} - [r*a, b]_pi - [a, r*b]_pi + r*([a, b]_pi)

    defined for arbitrary polynomial 1-forms, skewness of r o pi not required;
    r*a = a o r.  For a bundle map M: T*M -> TM the bracket is
    [a, b]_M = L_{M a} b - i_{M b} da, in components

        ([a, b]_M)_k = X^i d_i b_k + b_i d_k X^i + Y^i (da)_ki,
        X = M a,  Y = M b,  (da)_ki = d_k a_i - d_i a_k.

    The first two brackets share b and the first and third share da, so with
    U = (r pi# - pi# r*) a and V = (r pi# - pi# r*) b the sum is one pass

        C_k = U^i d_i b_k + b_i d_k U^i + V^i (da)_ki
              - (pi# a)^i d_i (r*b)_k - (r*b)_i d_k (pi# a)^i
              - (pi# b)^i (d r*a)_ki + (r*([a, b]_pi))_k,

    with each sharp image and each gradient taken once.

    When a and b are both constant (dx_a, or L_X dx_a for a linear X), da
    and db vanish, and U and V enter only through b_i d_k U^i = d_k <b, U>:

        <b, U> = <b, r pi# a> - <b, pi# r*a> = <r*b, pi# a> + <pi# b, r*a>.

    The sign of the second term turns because pi# is skew:
    <b, pi# c> = pi(c, b) = -pi(b, c) = -<c, pi# b>.  So then

        C_k = d_k <b, U> - (pi# a)^i d_i (r*b)_k - (r*b)_i d_k (pi# a)^i
              - (pi# b)^i (d r*a)_ki + (r*([a, b]_pi))_k,

    where <b, U> costs 2n products and n derivatives in place of the 4n^2
    products and n^2 derivatives of U and V.  For a = dx_a and b = dx_b,
    <b, U> is U^b, so its products are among those of U and the other
    terms form what the U route forms: this route meets the degree limit
    only where the U route does, and may give a value where forming the
    other rows of U meets it.  A pair with a non-constant form forms U and V.

    Each piece is built once: the core (v, r*v, pi# v) of each form, where
    a coordinate covector dx_a reads r*dx_a and pi# dx_a as column a of the
    matrices of r* and pi# and forms no product (``_core``); the gradients
    of each role from its core (``_a_role``, ``_b_role``); and one sum per
    component k.  Products are formed in this order, which fixes the
    product that a degree-limit error names: r*a, pi# a and, for a
    non-constant a, U; r*b, pi# b and, for a non-constant b, V; U and V
    where the pair still needs them; the components of [a, b]_pi, then
    <b, U> on the constant route; r*([a, b]_pi) for every k; then per k the
    terms in U and V (d_k <b, U> forms none) and those in pi# a, r*b and
    pi# b.
    """
    _check_tangent(r)
    if not pi.chart == r.chart == a.chart == b.chart:
        raise PolyError("chart mismatch")
    prep = _prep(pi, r)
    return _pair(a.chart, prep, _a_role(prep, _core(prep, _comps(a))),
                 _b_role(prep, _core(prep, _comps(b))))


def _coframe_roles(prep, vectors: list[list[Poly]]):
    """For the pairs (f_a, f_b), a < b: a-roles but the last, b-roles but the
    first.  Each form's core is built once and read by both of its roles, and
    each role by every pair it enters; the core of a coordinate covector is
    two matrix columns (``_core``)."""
    cores = [_core(prep, v) for v in vectors]
    return ({a: _a_role(prep, c) for a, c in enumerate(cores[:-1])},
            {b: _b_role(prep, c) for b, c in enumerate(cores) if b})


def concomitant_R(pi: Multivector, r: VForm, a: DiffForm, X: VForm) -> VForm:
    """The vector-valued concomitant

        R(a, X) = pi#( L_X(r* a) - L_{r(X)} a ) - (L_{pi# a} r)(X).
    """
    rX = r.insert_vector(X)
    inner = (lie_derivative_vvf(X, interior_vvf(r, a))
             - lie_derivative_vvf(rX, a))
    lr = frolicher_nijenhuis(sharp(pi, a), r)
    return sharp(pi, inner) - lr.insert_vector(X)


def _pi_r(pi: Multivector, r: VForm) -> tuple[Multivector | list[list[Poly]],
                                              list[list[Poly]]]:
    """pi_r when the selfadjointness defect vanishes, else the raw composite
    matrix of r o pi#; and the defect matrix."""
    S = sharp_matrix(pi)
    rm = r.matrix()
    left = mat_mul(rm, S)
    right = mat_mul(S, transpose(rm))
    defect = [[l - q for l, q in zip(lr, qr)] for lr, qr in zip(left, right)]
    if all(p.is_zero for row in defect for p in row):
        return bivector_from_sharp(pi.chart, left), defect
    return left, defect


def _C_table(c: PNCandidate) -> dict[tuple[int, int], DiffForm]:
    """C on the coframe pairs (dx_a, dx_b), a < b."""
    prep = _prep(c.pi, c.r)
    A, B = _coframe_roles(prep, identity(c.chart, c.chart.dim))
    return {(a, b): _pair(c.chart, prep, A[a], B[b]) for a in A for b in B if a < b}


def concomitants(c: PNCandidate):
    """All compatibility data: (pi_r or raw composite, C table, R table,
    selfadjointness defect matrix)."""
    chart = c.chart
    n = chart.dim
    pi_r, defect = _pi_r(c.pi, c.r)
    C_table = _C_table(c)
    R_table = {}
    fields = [tangent_bundle(chart).frame_section(i) for i in range(n)]
    for a in range(n):
        for i in range(n):
            R_table[(a, i)] = concomitant_R(c.pi, c.r,
                                            DiffForm.basis(chart, (a,)), fields[i])
    return pi_r, C_table, R_table, defect


def check_pn(c: PNCandidate) -> CheckReport:
    """PN verdict: pi Poisson, r o pi# selfadjoint, concomitant zero, and
    vanishing Nijenhuis torsion."""
    report = CheckReport("Poisson-Nijenhuis pair")
    chart = c.chart
    report.add_zero("Poisson condition [pi,pi]", schouten(c.pi, c.pi))
    pi_r_obj, defect = _pi_r(c.pi, c.r)
    flat = [p for row in defect for p in row if not p.is_zero]
    report.add("selfadjoint composite r o pi#", not flat,
               defect=flat or None)
    C_table = _C_table(c)
    for key in sorted(C_table):
        a, b = key
        report.add_zero("concomitant C", C_table[key],
                        detail=f"(d{chart.coords[a]},d{chart.coords[b]})")
    report.add_zero("Nijenhuis torsion N_r", nijenhuis_torsion(c.r))
    if isinstance(pi_r_obj, Multivector):
        report.add_zero("deformed bivector Poisson [pi_r,pi_r]",
                        schouten(pi_r_obj, pi_r_obj),
                        detail="corollary evidence")
    return report


def kosmann_equivalence(c: PNCandidate) -> CheckReport:
    """Bialgebroid characterization: (pi, r) is PN exactly when the deformed
    tangent algebroid TM_r pairs with the cotangent algebroid of pi as a
    bialgebroid (checked in both orientations).  The swapped pair's
    {mu, gamma} is the same function with xi and theta exchanged, so a
    passing deformed-tangent side is reused for the cotangent side; a failing
    one is computed again, for the cotangent side's own failing pairs."""
    ctg = cotangent_of_poisson(c.pi)  # flagged pre-Lie only exactly when [pi, pi] != 0
    if ctg.pre_lie_only:
        raise PolyError("bivector is not Poisson")
    report = CheckReport("bialgebroid characterization")
    tmr = deform_algebroid(tangent_algebroid(c.chart), c.r.matrix())
    vt = tmr.validate()
    report.add("deformed tangent algebroid valid", vt.passed,
               detail="equivalent to N_r = 0")
    vc = ctg.validate()
    report.add("cotangent algebroid valid", vc.passed)
    if vt.passed and vc.passed:
        tangent = _cocycle(tmr, ctg)
        cotangent = tangent if tangent.passed else _cocycle(ctg, tmr)
        for side, cocycle in (("deformed tangent", tangent), ("cotangent", cotangent)):
            report.add(f"cocycle ({side} side)", cocycle.passed,
                       detail="" if cocycle.passed
                       else f"{len(cocycle.failures())} failing pairs")
    return report


def mm1_identity(c: PNCandidate, X: VForm) -> CheckReport:
    """The derivation identity

        L_X(C(a,b)) - C(L_X a, b) - C(a, L_X b)
            = C'(a,b) + C''(a,b)

    where C' uses the bivector [X, pi] in place of pi and C'' uses the
    endomorphism [X, r]; holds for every (pi, r, X).

    Each piece is built once per check: one prep per (bivector,
    endomorphism), role data once per form and prep, and X's symbol (its
    components and their n^2 partials) once, read by every L_X through
    ``forms._lie_into``.  On each coframe pair C_0 = C(dx_a, dx_b) is
    finished first, as L_X reads its partials; then L_X C_0, the two pairs
    with L_X dx_a and L_X dx_b, C' and C'' go with their signs into one map
    of n sums, finished once, with the products formed in that order."""
    chart = c.chart
    n = chart.dim
    report = CheckReport("Lie-derivative expansion of the concomitant")
    Xpi = schouten(X_to_mv(X), c.pi)
    Xr = frolicher_nijenhuis(X, c.r)
    basis = identity(chart, n)
    p0, p1, p2 = _prep(c.pi, c.r), _prep(Xpi, c.r), _prep(c.pi, Xr)
    (A0, B0), (A1, B1), (A2, B2) = (_coframe_roles(p, basis) for p in (p0, p1, p2))
    symbol = _symbol_slots(_partials(X))

    def lie_minus(a: DiffForm, pairs=()) -> DiffForm:
        """L_X a minus C(f, g) for each (prep, f role, g role) of ``pairs``."""
        def kernel(out: dict, A: VForm) -> None:
            _lie_into(out, 0, symbol, _partials(A), 1)
            if pairs:  # the n sums of the one-slot form A
                sums = [out.setdefault(((k,), 0), _Sum(chart)) for k in range(n)]
                for prep, f, g in pairs:
                    _pair_into(sums, prep, f, g, -1)
        return _on_scalar(X, a, 1, kernel)

    LA, LB = _coframe_roles(p0, [_comps(lie_minus(DiffForm.basis(chart, (a,))))
                                 for a in range(n)])
    for a in range(n):
        for b in range(a + 1, n):
            defect = lie_minus(_pair(chart, p0, A0[a], B0[b]),
                               ((p0, LA[a], B0[b]), (p0, A0[a], LB[b]),
                                (p1, A1[a], B1[b]), (p2, A2[a], B2[b])))
            report.add_zero("concomitant Lie-derivative identity", defect,
                            detail=f"(d{chart.coords[a]},d{chart.coords[b]})")
    return report


def X_to_mv(X: VForm) -> Multivector:
    """A vector field as a degree-1 multivector."""
    comps = X.section_components()
    return Multivector(X.chart, 1, {(i,): p for i, p in enumerate(comps)
                                    if not p.is_zero})


def hierarchy(c: PNCandidate, depth: int) -> tuple[list[Multivector], CheckReport]:
    """Bivectors pi, pi_r, ..., pi_{r^depth} with pairwise compatibility
    certificates; requires the PN property."""
    base = check_pn(c)
    if not base.passed:
        raise PolyError("hierarchy requires a Poisson-Nijenhuis pair")
    chart = c.chart
    S = sharp_matrix(c.pi)
    rm = c.r.matrix()
    out = [c.pi]
    power = S
    for _ in range(depth):
        power = mat_mul(rm, power)
        out.append(bivector_from_sharp(chart, power))
    report = CheckReport(f"hierarchy to depth {depth}")
    for i in range(len(out)):
        for j in range(i, len(out)):
            report.add_zero("Schouten compatibility", schouten(out[i], out[j]),
                            detail=f"(pi_{i},pi_{j})")
    return out, report
