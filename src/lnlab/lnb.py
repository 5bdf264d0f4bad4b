"""Lie-Nijenhuis bialgebroid verification.

A candidate is a dual pair of algebroids together with a degree-1 generalized
derivation whose IM equations hold on both sides and whose self-bracket
[D, D] vanishes whole: its D, its l and its symbol.  The module also
extracts the induced Poisson-Nijenhuis structure on the base, builds the
deformation hierarchy, and recognizes holomorphic and Courant-type
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Chart, Poly, PolyError
from .forms import VForm, bivector_from_sharp
from .gder import FramedBundle, GenDer, bracket, dual
from .algebroid import (AlgebroidStructure, algebroid_torsion, check_bialgebroid,
                        check_im, deform_algebroid)
from .matrix import identity, mat_mul, transpose
from .pnlab import PNCandidate, check_pn
from .report import CheckReport, _once

__all__ = [
    "LNCandidate",
    "check_lnb",
    "base_pn",
    "deform_hierarchy",
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
    return transpose([v.section_components() for v in D.l_frame])


def check_lnb(c: LNCandidate) -> CheckReport:
    """Full candidate verdict: IM equations for the derivation, IM equations
    for its dual on the dual algebroid, and vanishing self-bracket, after
    both algebroids and the bialgebroid cocycle.  The self-bracket [D, D] is
    checked whole: the "derivation square" row of a frame section u_a passes
    when D(u_a), l(u_a) and the symbol of [D, D] all vanish, and its defect
    is D(u_a) when only that is nonzero, else each nonzero part by name.
    Within one scene run a structure already verified is not verified again;
    library calls verify in full."""
    for label, rep in (("base algebroid", c.A.validate()),
                       ("dual algebroid", c.Astar.validate())):
        if not rep.passed:
            raise PolyError(f"{label} is not a Lie algebroid")
    if not check_bialgebroid(c.A, c.Astar).passed:
        raise PolyError("the pair is not a bialgebroid")
    report = CheckReport("Lie-Nijenhuis bialgebroid")
    report.extend(check_im(c.A, c.D), prefix="base: ")
    report.extend(check_im(c.Astar, _once(dual, c.D)), prefix="dual: ")
    sq = _once(bracket, c.D, c.D)
    for a, name in enumerate(c.A.bundle.frame):
        named = [(part, v) for part, v in (("D", sq.d_frame[a]), ("l", sq.l_frame[a]),
                                           ("symbol", sq.r)) if not v.is_zero]
        if [part for part, _ in named] in ([], ["D"]):
            report.add_zero("derivation square", sq.d_frame[a], detail=name)
        else:
            report.add("derivation square", False,
                       "; ".join(f"{part}: {v}" for part, v in named), detail=name)
    return report


def base_pn(c: LNCandidate) -> tuple[PNCandidate, CheckReport]:
    """Poisson-Nijenhuis structure induced on the base: the bivector obtained
    by composing the two anchors, paired with the symbol of the derivation.
    Within one scene run a candidate already verified is not verified again;
    a library call verifies it in full."""
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
    itself; each member goes through ``check_lnb``.  Within one scene run
    what a member shares with the candidate (an algebroid, the derivation
    and its dual) is not verified again; a library call verifies each member
    in full."""
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
    identity on both the tangent and the bundle side (R = ``r.matrix()`` and
    L = ``_l_matrix``), and the derivation anticommutes with it: for each
    frame section u_a and coordinate field d/dx_i, D_{r(d/dx_i)} u_a +
    l(D_{d/dx_i} u_a) vanishes, which is column i of M_a R + L M_a with M_a
    the frame matrix of D(u_a).  Within one scene run a candidate already
    verified is not verified again; a library call verifies it in full."""
    if not check_lnb(c).passed:
        raise PolyError("candidate is not a Lie-Nijenhuis bialgebroid")
    chart = c.chart
    report = CheckReport("holomorphic structure")
    R, L = c.D.r.matrix(), _l_matrix(c.D)
    for side, M in (("r", R), ("l", L)):
        sums = [p + q for row, unit in zip(mat_mul(M, M), identity(chart, len(M)))
                for p, q in zip(row, unit)]
        defect = [p for p in sums if not p.is_zero]
        report.add(f"{side} squares to minus identity", not defect,
                   defect=defect or None)
    for name, Da in zip(c.A.bundle.frame, c.D.d_frame):
        M = Da.matrix()
        anti = [[p + q for p, q in zip(*rows)] for rows in zip(mat_mul(M, R), mat_mul(L, M))]
        for i, column in enumerate(zip(*anti)):
            report.add_zero("derivation anticommutes with the symbol",
                            VForm.section(chart, column),
                            detail=f"({name};d/d{chart.coords[i]})")
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
    L = _l_matrix(c.D)
    L2 = mat_mul(L, L)
    lam = L2[0][0] if L2 else Poly.zero(c.chart)
    scalar = [[lam * p for p in row] for row in identity(c.chart, len(L))]
    if lam.total_degree() or L2 != scalar:
        raise PolyError("l squared is not a scalar multiple of the identity")
    lstar = [[-p for p in row] for row in transpose(L)]
    return CourantOperator(c.A.bundle, L, lstar, lam.constant_value())
