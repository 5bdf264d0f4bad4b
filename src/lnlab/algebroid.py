"""Lie algebroid structures in a frame, and the IM-equation checker.

An algebroid over a chart is given by its anchor matrix and structure
functions on a fixed frame.  Brackets of arbitrary polynomial sections follow
from the Leibniz rule, so the Jacobi identity and anchor morphism property on
frame tuples certify the structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .poly import Chart, Poly, PolyError
from .forms import (Multivector, VForm, _Alternating, derivative, sharp_matrix,
                    schouten, vf_bracket)
from .gder import (FramedBundle, GenDer, build_drT, cotangent_bundle,
                   tangent_bundle)
from .matrix import identity, mat_vec, transpose
from .report import CheckReport

__all__ = [
    "AlgebroidStructure",
    "FrameBivector",
    "DeformedBracket",
    "tangent_algebroid",
    "cotangent_of_poisson",
    "ce_differential",
    "check_bialgebroid",
    "deformed_bracket",
    "check_im",
]


class FrameBivector(_Alternating):
    """Section of the second exterior power of a framed bundle: a degree-2
    alternating tensor whose indices run over the frame, not the chart."""

    __slots__ = ("bundle",)

    def __init__(self, bundle: FramedBundle,
                 coeffs: Mapping[tuple[int, int], Poly] | None = None) -> None:
        self.bundle = bundle
        super().__init__(bundle.chart, 2, coeffs)

    def _span(self) -> int:
        return self.bundle.rank

    def _shape(self) -> tuple:
        return (self.bundle,)

    @classmethod
    def _trusted(cls, bundle: FramedBundle, coeffs: Mapping) -> "FrameBivector":
        self = super()._trusted(bundle.chart, 2, coeffs)
        self.bundle = bundle
        return self

    @staticmethod
    def wedge_sections(s: VForm, t: VForm, bundle: FramedBundle) -> "FrameBivector":
        sc, tc = s.section_components(), t.section_components()
        return FrameBivector._trusted(bundle, {
            (a, b): sc[a] * tc[b] - sc[b] * tc[a]
            for a in range(bundle.rank) for b in range(a + 1, bundle.rank)})

    def render(self) -> str:
        f = self.bundle.frame
        return self._terms(lambda idx, p: f"({p}) {f[idx[0]]}^{f[idx[1]]}")

    __str__ = render


@dataclass
class AlgebroidStructure:
    """Anchored bracket bundle in a frame.

    ``anchor[a][i]`` is the i-th component of rho(u_a); ``structure[(a, b)]``
    (a < b) lists the frame components of [u_a, u_b].  Brackets whose
    components all vanish are dropped.
    """

    bundle: FramedBundle
    anchor: list[list[Poly]]
    structure: dict[tuple[int, int], list[Poly]]
    pre_lie_only: bool = False

    def __post_init__(self) -> None:
        chart, rank = self.bundle.chart, self.bundle.rank
        if len(self.anchor) != rank or any(len(row) != chart.dim for row in self.anchor):
            raise PolyError("anchor must be a rank x dim matrix")
        for (a, b), comps in self.structure.items():
            if not (0 <= a < b < rank) or len(comps) != rank:
                raise PolyError(f"bad structure entry {(a, b)}")
        self.structure = {k: comps for k, comps in self.structure.items()
                          if any(not p.is_zero for p in comps)}

    @property
    def chart(self) -> Chart:
        return self.bundle.chart

    def anchor_of(self, section: VForm) -> VForm:
        """rho applied to a polynomial section; a vector field."""
        return VForm.section(self.chart, mat_vec(transpose(self.anchor),
                                                 section.section_components()))

    def frame_bracket(self, a: int, b: int) -> VForm:
        key, sign = ((a, b), 1) if a < b else ((b, a), -1)
        comps = self.structure.get(key)
        if a == b or comps is None:
            return self.bundle.zero_form(0)
        return VForm.section(self.chart, [sign * p for p in comps])

    def section_bracket(self, s: VForm, t: VForm) -> VForm:
        """[s, t] for polynomial sections, via bilinearity and Leibniz."""
        rank = self.bundle.rank
        sc, tc = s.section_components(), t.section_components()
        out = self.bundle.zero_form(0)
        for a in range(rank):
            for b in range(rank):
                if sc[a].is_zero or tc[b].is_zero:
                    continue
                out = out + self.frame_bracket(a, b) * (sc[a] * tc[b])
        rho_s = self.anchor_of(s).section_components()
        rho_t = self.anchor_of(t).section_components()
        for b in range(rank):
            acc = derivative(rho_s, tc[b]) - derivative(rho_t, sc[b])
            if not acc.is_zero:
                out = out + self.bundle.frame_section(b) * acc
        return out

    def validate(self) -> CheckReport:
        """Jacobi identity on frame triples, anchor morphism on frame pairs."""
        report = CheckReport(f"algebroid on {self.bundle.frame}")
        rank = self.bundle.rank
        frames = [self.bundle.frame_section(a) for a in range(rank)]
        names = self.bundle.frame
        for a in range(rank):
            for b in range(a + 1, rank):
                defect = (self.anchor_of(self.frame_bracket(a, b))
                          - vf_bracket(self.anchor_of(frames[a]),
                                       self.anchor_of(frames[b])))
                report.add_zero("anchor morphism", defect,
                                detail=f"({names[a]},{names[b]})")
        for a in range(rank):
            for b in range(a + 1, rank):
                for c in range(b + 1, rank):
                    jac = (self.section_bracket(self.frame_bracket(a, b), frames[c])
                           + self.section_bracket(self.frame_bracket(b, c), frames[a])
                           + self.section_bracket(self.frame_bracket(c, a), frames[b]))
                    report.add_zero("Jacobi identity", jac,
                                    detail=f"({names[a]},{names[b]},{names[c]})")
        if self.pre_lie_only:
            report.notes.append("structure flagged pre-Lie only")
        return report

    def lie_on_bivector(self, s: VForm, P: FrameBivector) -> FrameBivector:
        """L_s P: the bracket extended as a derivation of the wedge."""
        frames = [self.bundle.frame_section(a) for a in range(self.bundle.rank)]
        rho_s = self.anchor_of(s).section_components()
        out = FrameBivector(self.bundle, {})
        for (a, b), p in P.coeffs.items():
            dp = derivative(rho_s, p)
            if not dp.is_zero:
                out = out + FrameBivector._trusted(self.bundle, {(a, b): dp})
            out = out + FrameBivector.wedge_sections(
                self.section_bracket(s, frames[a]), frames[b], self.bundle) * p
            out = out + FrameBivector.wedge_sections(
                frames[a], self.section_bracket(s, frames[b]), self.bundle) * p
        return out


def tangent_algebroid(chart: Chart) -> AlgebroidStructure:
    """TM with the identity anchor and vanishing structure functions."""
    return AlgebroidStructure(tangent_bundle(chart), identity(chart, chart.dim), {})


def cotangent_of_poisson(pi: Multivector) -> AlgebroidStructure:
    """Koszul bracket on the coordinate coframe:

        [dx_a, dx_b] = d(pi(dx_a, dx_b)),   anchor = contraction with pi.

    A non-closed (non-Poisson) bivector still yields bracket data; the result
    is then flagged pre-Lie only.
    """
    chart = pi.chart
    n = chart.dim
    anchor = transpose(sharp_matrix(pi))  # row a: sharp(dx_a)
    structure: dict[tuple[int, int], list[Poly]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            p = pi.coeff((a, b))
            structure[(a, b)] = [p.diff(k) for k in range(n)]
    flagged = not schouten(pi, pi).is_zero
    return AlgebroidStructure(cotangent_bundle(chart), anchor, structure,
                              pre_lie_only=flagged)


def ce_differential(Astar: AlgebroidStructure, section: VForm) -> FrameBivector:
    """Differential on sections of A induced by the structure on A*:

        delta(s)(m1, m2) = L_{rho*(m1)}<m2, s> - L_{rho*(m2)}<m1, s>
                           - <[m1, m2]*, s>

    evaluated on the dual frame; returns a wedge-square section of A.
    """
    rank = Astar.bundle.rank
    comps = section.section_components()
    if len(comps) != rank:
        raise PolyError("section rank does not match the dual structure")
    A_bundle = Astar.bundle.dual()
    out: dict[tuple[int, int], Poly] = {}
    for a in range(rank):
        for b in range(a + 1, rank):
            acc = (derivative(Astar.anchor[a], comps[b])
                   - derivative(Astar.anchor[b], comps[a]))
            cab = Astar.structure.get((a, b))
            if cab is not None:
                for k in range(rank):
                    acc = acc - cab[k] * comps[k]
            out[(a, b)] = acc
    return FrameBivector._trusted(A_bundle, out)


def check_bialgebroid(A: AlgebroidStructure, Astar: AlgebroidStructure,
                      probe_coefficients: bool = True) -> CheckReport:
    """Cocycle condition making (A, A*) a dual pair:

        delta([a, b]) = L_a delta(b) - L_b delta(a)

    with delta the differential induced by A*.  Checked on frame pairs and,
    when requested, on coordinate-function multiples of frame sections (which
    exercises the anchor compatibility hidden in the Leibniz terms).
    """
    report = CheckReport("bialgebroid pair")
    va = A.validate()
    if not va.passed:
        report.add("base structure valid", False,
                   detail=f"{len(va.failures())} defects")
        return report
    vs = Astar.validate()
    if not vs.passed:
        report.add("dual structure valid", False,
                   detail=f"{len(vs.failures())} defects")
        return report
    report.add("base structure valid", True)
    report.add("dual structure valid", True)
    chart, rank = A.chart, A.bundle.rank
    names = A.bundle.frame
    sections: list[tuple[str, VForm]] = [
        (names[a], A.bundle.frame_section(a)) for a in range(rank)]
    if probe_coefficients:
        for c in chart.coords:
            for a in range(rank):
                sections.append((f"{c}*{names[a]}",
                                 A.bundle.frame_section(a) * Poly.var(chart, c)))
    for ia, (la, sa) in enumerate(sections):
        for lb, sb in sections[ia + 1:]:
            defect = (ce_differential(Astar, A.section_bracket(sa, sb))
                      - A.lie_on_bivector(sa, ce_differential(Astar, sb))
                      + A.lie_on_bivector(sb, ce_differential(Astar, sa)))
            report.add_zero("cocycle condition", defect, detail=f"({la},{lb})")
    return report


@dataclass
class DeformedBracket:
    """Bracket deformed by a degree-1 generalized derivation:

        [a, b]_D = [l(a), b] + D_{rho(b)}(a)

    with anchors rho o l and r o rho recorded.  Skewness is a theorem only
    under the second IM equation, so it is reported, not assumed.
    """

    bundle: FramedBundle
    table: list[list[VForm]]
    anchor_l: list[list[Poly]]
    anchor_r: list[list[Poly]]
    skew: bool

    def to_algebroid(self, pre_lie_only: bool = False) -> AlgebroidStructure:
        if not self.skew:
            raise PolyError("deformed bracket is not skew; no algebroid structure")
        structure = {}
        rank = self.bundle.rank
        for a in range(rank):
            for b in range(a + 1, rank):
                structure[(a, b)] = self.table[a][b].section_components()
        return AlgebroidStructure(self.bundle, self.anchor_l, structure,
                                  pre_lie_only=pre_lie_only)


def deformed_bracket(A: AlgebroidStructure, D: GenDer) -> DeformedBracket:
    if D.bundle != A.bundle or D.degree != 1:
        raise PolyError("need a degree-1 derivation on the same bundle")
    rank = A.bundle.rank
    frames = [A.bundle.frame_section(a) for a in range(rank)]
    table: list[list[VForm]] = []
    for a in range(rank):
        row = []
        for b in range(rank):
            val = (A.section_bracket(D.apply_l(frames[a]), frames[b])
                   + D.apply(frames[a]).insert_vector(A.anchor_of(frames[b])))
            row.append(val)
        table.append(row)
    skew = all((table[a][b] + table[b][a]).is_zero
               for a in range(rank) for b in range(a, rank))
    anchor_l = [A.anchor_of(D.apply_l(u)).section_components() for u in frames]
    rmat = D.r.matrix()
    anchor_r = [mat_vec(rmat, row) for row in A.anchor]
    return DeformedBracket(A.bundle, table, anchor_l, anchor_r, skew)


def check_im(A: AlgebroidStructure, D: GenDer) -> CheckReport:
    """The four compatibility equations between a degree-1 derivation and an
    anchored bracket, evaluated on frame sections and coordinate fields:

        (1) D_X([a,b]) = [a, D_X(b)] - [b, D_X(a)]
                         + D_{[rho(b),X]}(a) - D_{[rho(a),X]}(b)
        (2) l([a,b])   = [a, l(b)] - D_{rho(b)}(a)
        (3) D^{r,T}_X(rho(a)) = rho(D_X(a))
        (4) r o rho = rho o l
    """
    if D.bundle != A.bundle or D.degree != 1:
        raise PolyError("need a degree-1 derivation on the same bundle")
    report = CheckReport("IM equations")
    chart, rank, n = A.chart, A.bundle.rank, A.chart.dim
    names = A.bundle.frame
    frames = [A.bundle.frame_section(a) for a in range(rank)]
    coord_fields = [tangent_bundle(chart).frame_section(i) for i in range(n)]
    drT = build_drT(D.r)

    def D_at(s: VForm, X: VForm) -> VForm:
        return D.apply(s).insert_vector(X)

    for a in range(rank):
        for b in range(a + 1, rank):
            ab = A.frame_bracket(a, b)
            for i in range(n):
                X = coord_fields[i]
                rho_a = A.anchor_of(frames[a])
                rho_b = A.anchor_of(frames[b])
                defect = (D_at(ab, X)
                          - A.section_bracket(frames[a], D_at(frames[b], X))
                          + A.section_bracket(frames[b], D_at(frames[a], X))
                          - D_at(frames[a], vf_bracket(rho_b, X))
                          + D_at(frames[b], vf_bracket(rho_a, X)))
                report.add_zero("IM bracket compatibility", defect,
                                detail=f"({names[a]},{names[b]};d/d{chart.coords[i]})")
            defect2 = (D.apply_l(ab)
                       - A.section_bracket(frames[a], D.apply_l(frames[b]))
                       + D_at(frames[a], A.anchor_of(frames[b])))
            report.add_zero("IM symbol-bracket compatibility", defect2,
                            detail=f"({names[a]},{names[b]})")
    for a in range(rank):
        rho_a = A.anchor_of(frames[a])
        for i in range(n):
            X = coord_fields[i]
            defect3 = (drT.apply(rho_a).insert_vector(X)
                       - A.anchor_of(D_at(frames[a], X)))
            report.add_zero("IM anchor intertwining", defect3,
                            detail=f"({names[a]};d/d{chart.coords[i]})")
    rmat = D.r.matrix()
    im4 = []
    for a in range(rank):
        la = D.apply_l(frames[a])
        rho_la = A.anchor_of(la).section_components()
        for j, r_rho in enumerate(mat_vec(rmat, A.anchor[a])):
            p = r_rho - rho_la[j]
            if not p.is_zero:
                im4.append(((a, j), p))
    report.add("IM symbol square", not im4,
               defect=None if not im4 else im4,
               detail="r o rho - rho o l")
    return report
