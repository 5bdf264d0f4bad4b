"""Poisson-Nijenhuis verification.

A candidate is a bivector pi and an endomorphism r on the same chart.  The
module computes the compatibility concomitants exactly, decides the PN
property, and cross-checks it against the bialgebroid characterization.

``check_pn`` reads selfadjointness and the concomitant C off two anchored
brackets on T*M: the bracket of r o pi#, and the Koszul bracket of pi
deformed by r* (Magri & Morosi 1984; Kosmann-Schwarzbach, "The Lie
bialgebroid of a Poisson-Nijenhuis manifold", Lett. Math. Phys. 38, 1996).
Selfadjointness is the equality of their anchors, and C on the coframe is
the difference of their brackets; the Koszul algebroid deformed there is
built without [pi, pi], which ``check_pn`` forms once for its first item.

``concomitant_C`` forms C on arbitrary 1-forms, with no algebroid, from one
formula that Cartan's formula gives for every pair (with U = r pi# - pi# r*):

    C(a, b) = d<r*a, pi# b> + i_{pi# b} d(r*a) - i_{pi# a} d(r*b)
              + r*([a, b]_pi) + i_{U a} db - i_{U b} da.

Each form enters it through one role, the same in either slot, and U is
formed only against a form that is not closed.  ``concomitant_C`` documents
the order of the products.

``mm1_identity`` takes every Lie derivative from the same Cartan formula
L_X = d i_X + i_X d (``_cartan_into``): L_X dx_a = d(X^a), and
L_X C_0 = d<C_0, X> + i_X dC_0 for C_0 on a coframe pair.  It pairs only
closed forms (dx_a and d(X^a)), so it never forms U, and on closed forms
the formula reads (``_parts``)

    C(a, b) = d<r*a, pi# b> + r*(d<b, pi# a>) + i_{pi# b} d(r*a) - i_{pi# a} d(r*b).

Since d is linear, the exact parts of L_X C_0 and of the four subtracted C
terms collapse into one gradient per coframe pair, and their r*(d.) parts
into two, so each pair is one Cartan sum; its docstring documents that sum
and its product order.  The brackets [X, pi] and [X, r] it reads are L_X of
the frame matrices it holds (``_lie_frames``): with J[v][u] = d_u X^v, the
gradients L_X dx_v = d(X^v), and X(A) = sum_u X^u d_u A entrywise,

    [X, pi]# = X(S) - J S - S J^T  on the sharp matrix S of pi,
    [X, r]   = X(M) - J M + M J    on the matrix M of r,

so no Schouten or Frolicher-Nijenhuis kernel runs.

``_curl`` stores only the nonzero entries of a 2-form d(v), so an interior
term sums over those alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Chart, Poly, PolyError, _Sum
from .forms import (DiffForm, Multivector, VForm, bivector_from_sharp,
                    frolicher_nijenhuis, interior_vvf, lie_derivative_vvf,
                    nijenhuis_torsion, schouten, sharp, sharp_matrix)
from .algebroid import (_cocycle, _koszul, cotangent_of_poisson, deform_algebroid,
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


def _curl(comps: list[Poly]):
    """d(comps) as its nonzero rows {i: {k: c[i][k]}}, with
    c[i][k] = d_i comps[k] - d_k comps[i], each row in increasing k, or None
    when d(comps) = 0.  Only nonzero entries are stored; an entry whose two
    partials vanish forms no subtraction and no negation."""
    g = [p.grad() for p in comps]
    c: dict[int, dict[int, Poly]] = {}
    for i, gi in enumerate(g):
        for k in range(i + 1, len(comps)):
            if g[k][i] or gi[k]:
                d = g[k][i] - gi[k]
                if d:
                    c.setdefault(i, {})[k] = d
                    c.setdefault(k, {})[i] = -d
    return c or None


def _prep(pi: Multivector, r: VForm):
    """(pi#, r, r*) as matrices, read by every concomitant of (pi, r)."""
    M = r.matrix()
    return sharp_matrix(pi), M, transpose(M)


def _lie_frames(chart: Chart, Xc: list[Poly], J, S, M):
    """The sharp matrix of [X, pi] and the matrix of [X, r], from the
    components Xc of X, J[v][u] = d_u X^v, S = pi# and M = r.  With X(A) the
    entrywise sum_u X^u d_u A, L_X is the matrix identity

        [X, pi]# = X(S) - J S - S J^T,    [X, r] = X(M) - J M + M J.

    [X, pi]# is skew like S, so only the entries below the diagonal are
    summed, as X(S[j][i]) - (J S)[j][i] + (J S)[i][j] for j > i, and the
    entries above are their negations.  Each entry is one sum of its
    products with no zero factor, made at the first such product, so an
    entry with none is zero with no sum.  The products are formed in this
    order, which fixes the product that a degree-limit error names: the
    entries of [X, pi]# row by row, then those of [X, r] row by row; in
    each, the products X^u d_u A over u, then those of (J A) at the entry,
    then those of (J S)[i][j] or (M J)[v][i]."""
    zero = Poly.zero(chart)

    def entry(a: Poly, *dots) -> Poly:  # X(a) plus the signed dot products
        acc = None
        for xs, ys, sign in ((Xc, a.grad(), 1),) + dots:
            for x, y in zip(xs, ys):
                if x and y:
                    if acc is None:
                        acc = _Sum(chart)
                    acc.add(x, y, sign)
        return zero if acc is None else acc.poly()
    n = chart.dim
    St, Mt, Jt = transpose(S), transpose(M), transpose(J)  # rows are columns
    XS = [[zero] * n for _ in range(n)]
    for j in range(n):
        for i in range(j):
            XS[j][i] = entry(S[j][i], (J[j], St[i], -1), (J[i], St[j], 1))
            XS[i][j] = -XS[j][i]
    XM = [[entry(m, (J[v], Mt[i], -1), (row, Jt[i], 1)) for i, m in enumerate(row)]
          for v, row in enumerate(M)]
    return XS, XM


def _core(prep, v: list[Poly]):
    """(v, r*v, pi# v) for the components v of a form.  For a coordinate
    covector dx_a the images are column a of r* and of pi#, read with no
    product."""
    S, _, Mt = prep
    nz = [i for i, p in enumerate(v) if p]
    if len(nz) == 1 and v[nz[0]] == 1:
        a = nz[0]
        return v, [row[a] for row in Mt], [row[a] for row in S]
    return v, mat_vec(Mt, v), mat_vec(S, v)


def _role(prep, v: list[Poly], closed: bool = False):
    """What C reads of a 1-form with components v, in either slot:
    (v, r*v, pi# v, dv, d(r*v)), each 2-form as the rows of ``_curl`` or
    None when zero.  A form known to be ``closed``, such as a gradient
    (d o d = 0), gets dv None with no curl built."""
    v, rv, pv = _core(prep, v)
    return v, rv, pv, None if closed else _curl(v), _curl(rv)


def _U(prep, role) -> list[Poly]:
    """(r pi# - pi# r*) v from the role of v."""
    S, M, _ = prep
    _, rv, pv, _, _ = role
    return [x - y for x, y in zip(mat_vec(M, pv), mat_vec(S, rv))]


def _cartan_into(sums: list[_Sum], f: Poly, terms, sign: int = 1, pulls=()) -> None:
    """Add ``sign`` times df + sum of s i_X dv over the terms (X, dv, s) into
    the n sums, one per component, each component in that order; a term
    whose dv is None (zero) is skipped.  Over the rows of ``_curl``,
    (i_X dv)_k = -sum_u X^u dv[k][u], over the stored entries of row k in
    increasing u.  Before them it adds ``sign`` times s r*v over
    the ``pulls`` (Mt, v, s), with Mt the matrix of r*, for every component."""
    for Mt, v, s in pulls:
        for acc, row in zip(sums, Mt):
            _dot_into(acc, row, v, s * sign)
    df = f.grad()
    terms = [t for t in terms if t[1] is not None]
    for k, acc in enumerate(sums):
        acc.add(df[k], None, sign)
        for X, dv, s in terms:
            for u, q in dv.get(k, {}).items():
                acc.add(X[u], q, -s * sign)


def _parts(a_role, b_role):
    """C(a, b) on closed a and b, d<r*a, pi# b> + r*(d<b, pi# a>)
    + i_{pi# b} d(r*a) - i_{pi# a} d(r*b), as the factor pairs (r*a, pi# b)
    and (b, pi# a) of its two scalars and its interior terms (X, dv, s) as
    ``_cartan_into`` reads them (it skips those whose d(r*.) is zero)."""
    _, ra, pa, _, dra = a_role
    bv, _, pb, _, drb = b_role
    return (ra, pb), (bv, pa), [(pb, dra, 1), (pa, drb, -1)]


def _pair_into(sums: list[_Sum], prep, a_role, b_role, sign: int = 1) -> list[Poly]:
    """Add ``sign * C(a, b)`` into the n sums, one per component, from the
    roles of a and b, in the product order of ``concomitant_C``; return
    [a, b]_pi by component."""
    f, g, outer = _parts(a_role, b_role)
    curled = [(x, dv, s) for x, dv, s in ((a_role, b_role[3], 1), (b_role, a_role[3], -1))
              if dv is not None]  # (x, d of its partner, s) where that is not zero
    inner = [(x[2], dv, s) for x, dv, s in curled]
    outer += [(_U(prep, x), dv, s) for x, dv, s in curled]
    bracket = [_Sum(sums[0].chart) for _ in sums]
    _cartan_into(bracket, _dot(*g), inner)  # [a, b]_pi
    bracket = [acc.poly() for acc in bracket]
    _cartan_into(sums, _dot(*f), outer, sign, [(prep[2], bracket, 1)])
    return bracket


def concomitant_C(pi: Multivector, r: VForm, a: DiffForm, b: DiffForm) -> DiffForm:
    """The 1-form concomitant

        C(a, b) = [a, b]_{r o pi} - [r*a, b]_pi - [a, r*b]_pi + r*([a, b]_pi)

    defined for arbitrary polynomial 1-forms, skewness of r o pi not required;
    r*a = a o r.  Raises ``PolyError`` unless pi is a bivector, r a
    tangent-valued 1-form and a, b 1-forms, all on one chart.

    For a bundle map M: T*M -> TM, Cartan's formula L_X = d i_X + i_X d
    turns the bracket [a, b]_M = L_{M a} b - i_{M b} da into

        [a, b]_M = d<b, M a> + i_{M a} db - i_{M b} da.

    In the sum of the four brackets the scalar parts collapse, since pi# is
    skew (<b, pi# c> = -<c, pi# b>):

        <b, r pi# a> - <b, pi# r*a> - <r*b, pi# a> = <r*a, pi# b>,

    and with U = r pi# - pi# r* the terms in db and da pair up:

        C(a, b) = d<r*a, pi# b> + i_{pi# b} d(r*a) - i_{pi# a} d(r*b)
                  + r*([a, b]_pi) + i_{U a} db - i_{U b} da.

    This one formula serves every pair.  A form enters through its role
    (v, r*v, pi# v, dv, d(r*v)) (``_role``), the same in either slot; a
    coordinate covector dx_a reads r*dx_a and pi# dx_a as matrix columns and
    forms no product (``_core``).  U a is formed only when db is nonzero and
    U b only when da is, so a pair of closed forms, such as dx_a and
    L_X dx_a = d(X^a), forms neither.

    Products are formed in this order, which fixes the product that a
    degree-limit error names: r*a and pi# a; r*b and pi# b; U a, then U b,
    where formed; <b, pi# a>, then per component the interior terms of
    [a, b]_pi; <r*a, pi# b>; r*([a, b]_pi) for every component; then per
    component the terms in pi# b, pi# a, U a and U b.  <r*a, pi# b> can lie
    one degree above every product of the U terms, so on forms that are not
    constant the limit may fire there first.
    """
    PNCandidate(pi, r)  # a bivector and a tangent-valued 1-form on one chart
    if not all(isinstance(f, DiffForm) and f.degree == 1 and f.chart == pi.chart
               for f in (a, b)):
        raise PolyError("concomitant C takes two 1-forms on the chart of pi")
    if not pi.chart.dim:  # over a point every 1-form is zero
        return DiffForm(pi.chart, 1)
    prep = _prep(pi, r)
    sums = [_Sum(pi.chart) for _ in range(pi.chart.dim)]
    _pair_into(sums, prep, _role(prep, _comps(a)), _role(prep, _comps(b)))
    return DiffForm._trusted(pi.chart, 1, {(k,): acc.poly() for k, acc in enumerate(sums)})




def concomitant_R(pi: Multivector, r: VForm, a: DiffForm, X: VForm) -> VForm:
    """The vector-valued concomitant

        R(a, X) = pi#( L_X(r* a) - L_{r(X)} a ) - (L_{pi# a} r)(X).
    """
    rX = r.insert_vector(X)
    inner = (lie_derivative_vvf(X, interior_vvf(r, a))
             - lie_derivative_vvf(rX, a))
    lr = frolicher_nijenhuis(sharp(pi, a), r)
    return sharp(pi, inner) - lr.insert_vector(X)


def _compatibility(c: PNCandidate):
    """(pi_r when r o pi# is selfadjoint, else the raw composite matrix; the
    selfadjointness defect matrix; C on the coframe pairs (dx_a, dx_b), a < b).

    The deformed Koszul algebroid has anchor pi# o r*, so the defect is
    r o pi# minus that anchor.  [dx_a, dx_b]_{r o pi#} = d((r o pi#)_ba) for
    every r, so C(dx_a, dx_b) is that minus the deformed structure functions
    at (a, b).  r o pi# is formed first, so a degree-limit error names it."""
    chart, n = c.chart, c.chart.dim
    rm = c.r.matrix()
    left = mat_mul(rm, sharp_matrix(c.pi))
    koszul = deform_algebroid(_koszul(c.pi), transpose(rm))  # unflagged: no [pi, pi]
    defect = [[p - q for p, q in zip(row, col)] for row, col in zip(left, zip(*koszul.anchor))]
    zero = [Poly.zero(chart)] * n
    C_table = {(a, b): DiffForm._trusted(chart, 1, {
        (k,): g - s for k, (g, s) in enumerate(zip(
            left[b][a].grad(), koszul.structure.get((a, b), zero)))})
        for a in range(n) for b in range(a + 1, n)}
    if all(p.is_zero for row in defect for p in row):
        return bivector_from_sharp(chart, left), defect, C_table
    return left, defect, C_table


def concomitants(c: PNCandidate):
    """All compatibility data: (pi_r or raw composite, C table, R table,
    selfadjointness defect matrix).  The C table and the defect come from
    ``_compatibility``; R is formed on every (dx_a, d/dx_i)."""
    chart = c.chart
    n = chart.dim
    pi_r, defect, C_table = _compatibility(c)
    R_table = {}
    fields = [tangent_bundle(chart).frame_section(i) for i in range(n)]
    for a in range(n):
        for i in range(n):
            R_table[(a, i)] = concomitant_R(c.pi, c.r,
                                            DiffForm.basis(chart, (a,)), fields[i])
    return pi_r, C_table, R_table, defect


def check_pn(c: PNCandidate) -> CheckReport:
    """PN verdict: pi Poisson, r o pi# selfadjoint, concomitant zero, and
    vanishing Nijenhuis torsion.

    (pi, r) with r torsion-free and pi Poisson is PN exactly when two
    anchored brackets on T*M agree: the bracket of r o pi#, and the Koszul
    bracket of pi deformed by r* (Magri & Morosi 1984; Kosmann-Schwarzbach,
    "The Lie bialgebroid of a Poisson-Nijenhuis manifold", Lett. Math. Phys.
    38, 1996).  Selfadjointness is the equality of their anchors, and each
    concomitant C item the difference of their brackets on one coframe pair
    (``_compatibility``)."""
    report = CheckReport("Poisson-Nijenhuis pair")
    chart = c.chart
    report.add_zero("Poisson condition [pi,pi]", schouten(c.pi, c.pi))
    pi_r_obj, defect, C_table = _compatibility(c)
    flat = [p for row in defect for p in row if not p.is_zero]
    report.add("selfadjoint composite r o pi#", not flat,
               defect=flat or None)
    for (a, b), C in C_table.items():
        report.add_zero("concomitant C", C,
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

    Raises ``PolyError`` unless X is a vector field on the candidate's chart.

    Every L_X of a form comes from Cartan's formula L_X = d i_X + i_X d:
    L_X dx_a = d(X^a), the gradient of component a of X, and L_X C_0 =
    d<C_0, X> + i_X dC_0 for C_0 = C(dx_a, dx_b).  Each piece is built once
    per check: the gradients J[v][u] = d_u X^v, the frame matrices S = pi#
    and M = r (one ``sharp_matrix``), the sharp matrix X(S) - J S - S J^T of
    [X, pi] and the matrix X(M) - J M + M J of [X, r] (``_lie_frames``), with
    X(A) = sum_u X^u d_u A entrywise, and the roles of the dx_a under the
    preps (pi, r), ([X, pi], r) and (pi, [X, r]) and of the d(X^a) under
    (pi, r).  The roles under ([X, pi], r) reuse r*dx_a and d(r*dx_a) from
    those under (pi, r), and no role builds the zero curl of its closed form.

    Every form paired is closed, so each subtracted term t, with (pi_t, r_t)
    one of (pi, r) twice, ([X, pi], r) and (pi, [X, r]), is
    d<r_t* a_t, pi_t# b_t> + r_t*(d<b_t, pi_t# a_t>) plus two interior
    terms (``_parts``).  As d is linear, a coframe pair's defect is one
    Cartan sum (``_cartan_into``),

        dF + r*(dG) - [X, r]*([dx_a, dx_b]_pi) + i_X dC_0
           - sum_t (i_{pi_t# b_t} d(r_t* a_t) - i_{pi_t# a_t} d(r_t* b_t)),

    with F = <C_0, X> - sum_t <r_t* a_t, pi_t# b_t> over the four terms and
    G = -sum_t <b_t, pi_t# a_t> over the three that use r.  The fourth
    term's scalar is C_0's own <dx_b, pi# dx_a>, whose gradient
    [dx_a, dx_b]_pi is taken once, for C_0.  An interior term whose d(r_t*.)
    is zero is skipped.  Per pair that is four gradients and three
    r*-images besides dC_0, where expanding each term on its own takes
    eleven and five.

    Products are formed in this order, which fixes the product that a
    degree-limit error names: the entries of [X, pi]# below the diagonal,
    then those of [X, r], in the order of ``_lie_frames``; r* d(X^a), then
    pi# d(X^a), for each a; then per coframe pair C_0, in the order of
    ``concomitant_C``; <C_0, X>; the four <r_t* a_t, pi_t# b_t>; the three
    <b_t, pi_t# a_t>; r*(dG) for every component, then
    [X, r]*([dx_a, dx_b]_pi) for every component; then per component the
    terms X . dC_0 of i_X dC_0 and the interior terms, term by term.
    <C_0, X> lies one degree above the products X . dC_0, so on some input
    the limit fires there, one degree earlier than an expansion of L_X C_0
    as X(C_0) + C_0 . dX would.  A product of r*(dG) has no higher degree
    than some product r* . d<b_t, pi_t# a_t> of the term-by-term expansion,
    and every other product is one of that expansion, so the check raises
    at no limit where that expansion passes; on some input it passes where
    that expansion raises."""
    chart = c.chart
    n = chart.dim
    if not (isinstance(X, VForm) and (X.chart, X.degree, X.vals) == (chart, 0, n)):
        raise PolyError("mm1 identity needs a vector field on the candidate's chart")
    report = CheckReport("Lie-derivative expansion of the concomitant")
    Xc = X.section_components()
    J = [x.grad() for x in Xc]  # J[v][u] = d_u X^v; row a is L_X dx_a = d(X^a)
    p0 = S, M, Mt = _prep(c.pi, c.r)
    XS, XM = _lie_frames(chart, Xc, J, S, M)
    p1, p2 = (XS, M, Mt), (S, XM, transpose(XM))
    R0, R2 = ([_role(p, v, True) for v in identity(chart, n)] for p in (p0, p2))
    R1 = [(v, rv, _core(p1, v)[2], dv, drv) for v, rv, _, dv, drv in R0]  # r* as in R0
    L = [_role(p0, g, True) for g in J]
    for a in range(n):
        for b in range(a + 1, n):
            sums = [_Sum(chart) for _ in range(n)]
            bracket = _pair_into(sums, p0, R0[a], R0[b])  # [dx_a, dx_b]_pi
            C0 = [acc.poly() for acc in sums]
            parts = [_parts(f, g) for f, g in ((L[a], R0[b]), (R0[a], L[b]),
                                               (R1[a], R1[b]), (R2[a], R2[b]))]
            F, G, sums = _Sum(chart), _Sum(chart), [_Sum(chart) for _ in range(n)]
            _dot_into(F, C0, Xc)
            for acc, pair in [(F, f) for f, _, _ in parts] + [(G, g) for _, g, _ in parts[:3]]:
                _dot_into(acc, *pair, -1)  # the fourth g is C_0's <dx_b, pi# dx_a>
            _cartan_into(sums, F.poly(), [(Xc, _curl(C0), 1)]
                         + [(v, dv, -s) for *_, t in parts for v, dv, s in t],
                         pulls=[(p0[2], G.poly().grad(), 1), (p2[2], bracket, -1)])
            defect = DiffForm._trusted(chart, 1, {(k,): acc.poly() for k, acc in enumerate(sums)})
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
