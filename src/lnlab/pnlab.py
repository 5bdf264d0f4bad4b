"""Poisson-Nijenhuis verification.

A candidate is a bivector pi and an endomorphism r on the same chart.  The
module computes the compatibility concomitants exactly, decides the PN
property, and cross-checks it against the bialgebroid characterization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Chart, Poly, PolyError
from .forms import (DiffForm, Multivector, VForm, bivector_from_sharp,
                    exterior_d, frolicher_nijenhuis, interior_vector,
                    lie_derivative_vvf, nijenhuis_torsion, schouten, sharp,
                    sharp_matrix, vf_bracket)
from .algebroid import (AlgebroidStructure, check_bialgebroid,
                        cotangent_of_poisson)
from .gder import tangent_bundle
from .matrix import mat_mul, mat_vec, transpose
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
    "nijenhuis_deformed_tangent",
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
    return [a.coeff((i,)) for i in range(a.chart.dim)]


def _map_bracket(M: list[list[Poly]], a: DiffForm, b: DiffForm) -> DiffForm:
    """[a, b]_M = L_{M(a)} b - i_{M(b)} da for a bundle map M: T*M -> TM."""
    Ma = VForm.section(a.chart, mat_vec(M, _comps(a)))
    Mb = mat_vec(M, _comps(b))
    return lie_derivative_vvf(Ma, b) - interior_vector(Mb, exterior_d(a))


def _transpose_apply(rm: list[list[Poly]], a: DiffForm) -> DiffForm:
    """The 1-form a o r, i.e. (r* a)_i = sum_j a_j r^j_i."""
    comps = mat_vec(transpose(rm), _comps(a))
    return DiffForm._trusted(a.chart, 1, {(i,): p for i, p in enumerate(comps)})


def concomitant_C(pi: Multivector, r: VForm, a: DiffForm, b: DiffForm) -> DiffForm:
    """The 1-form concomitant

        C(a, b) = [a, b]_{r o pi} - [r*a, b]_pi - [a, r*b]_pi + r*([a, b]_pi)

    defined for arbitrary polynomial 1-forms, skewness of r o pi not required.
    """
    S = sharp_matrix(pi)
    rm = r.matrix()
    B = mat_mul(rm, S)
    return (_map_bracket(B, a, b)
            - _map_bracket(S, _transpose_apply(rm, a), b)
            - _map_bracket(S, a, _transpose_apply(rm, b))
            + _transpose_apply(rm, _map_bracket(S, a, b)))


def concomitant_R(pi: Multivector, r: VForm, a: DiffForm, X: VForm) -> VForm:
    """The vector-valued concomitant

        R(a, X) = pi#( L_X(r* a) - L_{r(X)} a ) - (L_{pi# a} r)(X).
    """
    rm = r.matrix()
    rX = r.apply_endo(X)
    inner = (lie_derivative_vvf(X, _transpose_apply(rm, a))
             - lie_derivative_vvf(rX, a))
    lr = frolicher_nijenhuis(sharp(pi, a), r)
    return sharp(pi, inner) - lr.insert_vector(X)


def selfadj_defect(pi: Multivector, r: VForm) -> list[list[Poly]]:
    """Matrix of r o pi# - pi# o r*."""
    S = sharp_matrix(pi)
    rm = r.matrix()
    left = mat_mul(rm, S)
    right = mat_mul(S, transpose(rm))
    return [[l - q for l, q in zip(lr, qr)] for lr, qr in zip(left, right)]


def _pi_r(c: PNCandidate, defect: list[list[Poly]]) -> Multivector | list[list[Poly]]:
    """pi_r when the selfadjointness defect vanishes, else the raw composite
    matrix of r o pi#."""
    B = mat_mul(c.r.matrix(), sharp_matrix(c.pi))
    if all(p.is_zero for row in defect for p in row):
        return bivector_from_sharp(c.chart, B)
    return B


def _C_table(c: PNCandidate) -> dict[tuple[int, int], DiffForm]:
    """C on the coframe pairs (dx_a, dx_b), a < b."""
    chart = c.chart
    n = chart.dim
    C_table = {}
    for a in range(n):
        for b in range(a + 1, n):
            C_table[(a, b)] = concomitant_C(c.pi, c.r,
                                            DiffForm.basis(chart, (a,)),
                                            DiffForm.basis(chart, (b,)))
    return C_table


def concomitants(c: PNCandidate):
    """All compatibility data: (pi_r or raw composite, C table, R table,
    selfadjointness defect matrix)."""
    chart = c.chart
    n = chart.dim
    defect = selfadj_defect(c.pi, c.r)
    pi_r = _pi_r(c, defect)
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
    defect = selfadj_defect(c.pi, c.r)
    flat = [p for row in defect for p in row if not p.is_zero]
    report.add("selfadjoint composite r o pi#", not flat,
               defect=flat or None)
    pi_r_obj = _pi_r(c, defect)
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


def nijenhuis_deformed_tangent(r: VForm) -> AlgebroidStructure:
    """TM with the deformed bracket [X,Y]_r = [rX,Y] + [X,rY] - r[X,Y] and
    anchor r."""
    chart = r.chart
    n = chart.dim
    bundle = tangent_bundle(chart)
    anchor = transpose(r.matrix())
    frames = [bundle.frame_section(i) for i in range(n)]
    structure = {}
    for a in range(n):
        for b in range(a + 1, n):
            val = (vf_bracket(r.apply_endo(frames[a]), frames[b])
                   + vf_bracket(frames[a], r.apply_endo(frames[b])))
            structure[(a, b)] = val.section_components()
    return AlgebroidStructure(bundle, anchor, structure)


def kosmann_equivalence(c: PNCandidate) -> CheckReport:
    """Bialgebroid characterization: (pi, r) is PN exactly when the deformed
    tangent algebroid TM_r pairs with the cotangent algebroid of pi as a
    bialgebroid (checked in both orientations)."""
    if not schouten(c.pi, c.pi).is_zero:
        raise PolyError("bivector is not Poisson")
    report = CheckReport("bialgebroid characterization")
    tmr = nijenhuis_deformed_tangent(c.r)
    ctg = cotangent_of_poisson(c.pi)
    vt = tmr.validate()
    report.add("deformed tangent algebroid valid", vt.passed,
               detail="equivalent to N_r = 0")
    vc = ctg.validate()
    report.add("cotangent algebroid valid", vc.passed)
    if vt.passed and vc.passed:
        fwd = check_bialgebroid(tmr, ctg)
        report.add("cocycle (deformed tangent side)", fwd.passed,
                   detail=f"{len(fwd.failures())} failing pairs" if not fwd.passed else "")
        bwd = check_bialgebroid(ctg, tmr)
        report.add("cocycle (cotangent side)", bwd.passed,
                   detail=f"{len(bwd.failures())} failing pairs" if not bwd.passed else "")
    return report


def mm1_identity(c: PNCandidate, X: VForm) -> CheckReport:
    """The derivation identity

        L_X(C(a,b)) - C(L_X a, b) - C(a, L_X b)
            = C'(a,b) + C''(a,b)

    where C' uses the bivector [X, pi] in place of pi and C'' uses the
    endomorphism [X, r]; holds for every (pi, r, X)."""
    chart = c.chart
    n = chart.dim
    report = CheckReport("Lie-derivative expansion of the concomitant")
    Xpi = schouten(X_to_mv(X), c.pi)
    Xr = frolicher_nijenhuis(X, c.r)
    for a in range(n):
        for b in range(a + 1, n):
            da, db = DiffForm.basis(chart, (a,)), DiffForm.basis(chart, (b,))
            lhs = (lie_derivative_vvf(X, concomitant_C(c.pi, c.r, da, db))
                   - concomitant_C(c.pi, c.r, lie_derivative_vvf(X, da), db)
                   - concomitant_C(c.pi, c.r, da, lie_derivative_vvf(X, db)))
            rhs = (concomitant_C(Xpi, c.r, da, db)
                   + concomitant_C(c.pi, Xr, da, db))
            report.add_zero("concomitant Lie-derivative identity", lhs - rhs,
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
