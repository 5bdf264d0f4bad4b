"""Lie-Nijenhuis bialgebroid verification.

A candidate is a dual pair of algebroids together with a degree-1 generalized
derivation whose IM equations hold on both sides and whose self-bracket
vanishes.  The module also extracts the induced Poisson-Nijenhuis structure on
the base, builds the deformation hierarchy, and recognizes holomorphic and
Courant-type candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Chart, Poly, PolyError
from .forms import VForm, bivector_from_sharp
from .gder import FramedBundle, GenDer, bracket, dual, tangent_bundle
from .algebroid import AlgebroidStructure, check_bialgebroid, check_im
from .matrix import identity, mat_mul, mat_vec, transpose
from .pnlab import PNCandidate, check_pn
from .report import CheckReport

__all__ = [
    "LNCandidate",
    "check_lnb",
    "base_pn",
    "deform_hierarchy",
    "deform_algebroid",
    "algebroid_torsion",
    "holomorphic_detect",
    "CourantOperator",
    "courant_operator",
]


@dataclass
class LNCandidate:
    """Dual algebroid pair with a degree-1 generalized derivation on the
    base-side bundle."""

    A: AlgebroidStructure
    Astar: AlgebroidStructure
    D: GenDer

    def __post_init__(self) -> None:
        if self.A.bundle.dual() != self.Astar.bundle:
            raise PolyError("algebroid frames are not dual to each other")
        if self.D.bundle != self.A.bundle or self.D.degree != 1:
            raise PolyError("need a degree-1 derivation on the base-side bundle")

    @property
    def chart(self) -> Chart:
        return self.A.chart


def _l_matrix(D: GenDer) -> list[list[Poly]]:
    """Matrix of the l symbol on the frame: L[b][a] = component b of l(u_a)."""
    cols = [D.apply_l(D.bundle.frame_section(a)).section_components()
            for a in range(D.bundle.rank)]
    return transpose(cols)


def _mat_apply(M: list[list[Poly]], s: VForm) -> VForm:
    return VForm.section(s.chart, mat_vec(M, s.section_components()))


def deform_algebroid(A: AlgebroidStructure, M: list[list[Poly]]) -> AlgebroidStructure:
    """Bracket deformed by a bundle endomorphism (frame matrix M):

        [a, b]_M = [M a, b] + [a, M b] - M([a, b]),    anchor rho o M.

    A Lie algebroid again exactly when the torsion of M vanishes.
    """
    rank = A.bundle.rank
    frames = [A.bundle.frame_section(a) for a in range(rank)]
    anchor = mat_mul(transpose(M), A.anchor)
    structure: dict[tuple[int, int], list[Poly]] = {}
    for a in range(rank):
        for b in range(a + 1, rank):
            val = (A.section_bracket(_mat_apply(M, frames[a]), frames[b])
                   + A.section_bracket(frames[a], _mat_apply(M, frames[b]))
                   - _mat_apply(M, A.frame_bracket(a, b)))
            structure[(a, b)] = val.section_components()
    return AlgebroidStructure(A.bundle, anchor, structure)


def algebroid_torsion(A: AlgebroidStructure, M: list[list[Poly]]) -> CheckReport:
    """Torsion of a bundle endomorphism with respect to the algebroid bracket,

        N(a, b) = [M a, M b] - M([a, b]_M),

    evaluated on frame pairs."""
    rank = A.bundle.rank
    frames = [A.bundle.frame_section(a) for a in range(rank)]
    names = A.bundle.frame
    deformed = deform_algebroid(A, M)
    report = CheckReport("endomorphism torsion")
    for a in range(rank):
        for b in range(a + 1, rank):
            defect = (A.section_bracket(_mat_apply(M, frames[a]),
                                        _mat_apply(M, frames[b]))
                      - _mat_apply(M, deformed.frame_bracket(a, b)))
            report.add_zero("torsion component", defect,
                            detail=f"({names[a]},{names[b]})")
    return report


def check_lnb(c: LNCandidate) -> CheckReport:
    """Full candidate verdict: IM equations for the derivation, IM equations
    for its dual on the dual algebroid, and vanishing self-bracket."""
    for label, rep in (("base algebroid", c.A.validate()),
                       ("dual algebroid", c.Astar.validate())):
        if not rep.passed:
            raise PolyError(f"{label} is not a Lie algebroid")
    if not check_bialgebroid(c.A, c.Astar).passed:
        raise PolyError("the pair is not a bialgebroid")
    report = CheckReport("Lie-Nijenhuis bialgebroid")
    report.extend(check_im(c.A, c.D), prefix="base: ")
    report.extend(check_im(c.Astar, dual(c.D)), prefix="dual: ")
    sq = bracket(c.D, c.D)
    names = c.A.bundle.frame
    for a in range(c.A.bundle.rank):
        report.add_zero("derivation square", sq.d_frame[a], detail=names[a])
    return report


def base_pn(c: LNCandidate) -> tuple[PNCandidate, CheckReport]:
    """Poisson-Nijenhuis structure induced on the base: the bivector obtained
    by composing the two anchors, paired with the symbol of the derivation."""
    if not check_lnb(c).passed:
        raise PolyError("candidate is not a Lie-Nijenhuis bialgebroid")
    chart = c.chart
    n = chart.dim
    # S[j][i] = sum_a rho*(u^a)_j rho(u_a)_i
    S = mat_mul(transpose(c.Astar.anchor), c.A.anchor)
    for i in range(n):
        for j in range(i, n):
            if not (S[j][i] + S[i][j]).is_zero:
                raise PolyError("anchor composition is not skew")
    pi = bivector_from_sharp(chart, S)
    cand = PNCandidate(pi, c.D.r)
    return cand, check_pn(cand)


def deform_hierarchy(c: LNCandidate, depth: int) -> tuple[list[LNCandidate], CheckReport]:
    """Candidates obtained by deforming the dual bracket with powers of the
    transposed symbol, plus the base-side bracket deformed by the symbol
    itself; each member is re-verified in full."""
    if depth < 1:
        raise PolyError("depth must be at least 1")
    if not check_lnb(c).passed:
        raise PolyError("candidate is not a Lie-Nijenhuis bialgebroid")
    L = _l_matrix(c.D)
    Lstar = transpose(L)
    report = CheckReport(f"deformation hierarchy to depth {depth}")
    report.extend(algebroid_torsion(c.A, L), prefix="N_l: ")
    members = [c]
    power = Lstar
    for j in range(1, depth + 1):
        member = LNCandidate(c.A, deform_algebroid(c.Astar, power), c.D)
        members.append(member)
        rep = check_lnb(member)
        report.add(f"dual deformation (power {j})", rep.passed,
                   detail=f"{len(rep.failures())} failing laws" if not rep.passed else "")
        power = mat_mul(Lstar, power)
    side = LNCandidate(deform_algebroid(c.A, L), c.Astar, c.D)
    members.append(side)
    rep = check_lnb(side)
    report.add("base-side deformation", rep.passed,
               detail=f"{len(rep.failures())} failing laws" if not rep.passed else "")
    return members, report


def holomorphic_detect(c: LNCandidate) -> CheckReport:
    """Complex-structure recognition: the symbol squares to minus the
    identity on both the tangent and the bundle side and the derivation
    anticommutes with it."""
    if not check_lnb(c).passed:
        raise PolyError("candidate is not a Lie-Nijenhuis bialgebroid")
    chart = c.chart
    n, rank = chart.dim, c.A.bundle.rank
    report = CheckReport("holomorphic structure")
    for side, M in (("r", c.D.r.matrix()), ("l", _l_matrix(c.D))):
        sums = [p + q for row, unit in zip(mat_mul(M, M), identity(chart, len(M)))
                for p, q in zip(row, unit)]
        defect = [p for p in sums if not p.is_zero]
        report.add(f"{side} squares to minus identity", not defect,
                   defect=defect or None)
    frames = [c.A.bundle.frame_section(a) for a in range(rank)]
    coord_fields = [tangent_bundle(chart).frame_section(i) for i in range(n)]
    names = c.A.bundle.frame
    for a in range(rank):
        for i in range(n):
            X = coord_fields[i]
            rX = c.D.r.apply_endo(X)
            defect = (c.D.apply(frames[a]).insert_vector(rX)
                      + c.D.apply_l(c.D.apply(frames[a]).insert_vector(X)))
            report.add_zero("derivation anticommutes with the symbol", defect,
                            detail=f"({names[a]};d/d{chart.coords[i]})")
    return report


@dataclass
class CourantOperator:
    """Block-diagonal operator diag(l, -l*) on the double, recorded with the
    scalar value of l squared."""

    bundle: FramedBundle
    l_block: list[list[Poly]]
    lstar_block: list[list[Poly]]
    square_scalar: Fraction


def courant_operator(c: LNCandidate) -> CourantOperator:
    """Builds diag(l, -l*) when l squares to a rational multiple of the
    identity; raises otherwise.  No torsion condition is verified here."""
    rank = c.A.bundle.rank
    L = _l_matrix(c.D)
    L2 = mat_mul(L, L)
    lam = None
    for a in range(rank):
        for b in range(rank):
            if a == b:
                continue
            if not L2[a][b].is_zero:
                raise PolyError("l squared is not a scalar multiple of the identity")
    for a in range(rank):
        p = L2[a][a]
        if not (p.is_zero or p.total_degree() == 0):
            raise PolyError("l squared is not a scalar multiple of the identity")
        val = Fraction(0) if p.is_zero else p.constant_value()
        if lam is None:
            lam = val
        elif lam != val:
            raise PolyError("l squared is not a scalar multiple of the identity")
    lstar = [[-p for p in row] for row in transpose(L)]
    return CourantOperator(c.A.bundle, L, lstar, lam if lam is not None else Fraction(0))
