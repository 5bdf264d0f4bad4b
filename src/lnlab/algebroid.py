"""Lie algebroid structures in a frame, and the IM-equation checker.

An algebroid over a chart is given by its anchor matrix and structure
functions on a fixed frame.  Brackets of arbitrary polynomial sections follow
from the Leibniz rule, so the Jacobi identity and anchor morphism property on
frame tuples certify the structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .poly import Chart, Poly, PolyError, _Sum
from .forms import (Multivector, VForm, _Alternating, _accumulate, _derive_into,
                    _sums, derivative, sharp_matrix, schouten, sort_index,
                    vf_bracket)
from .gder import (FramedBundle, GenDer, build_drT, cotangent_bundle,
                   tangent_bundle)
from .matrix import identity, mat_mul, mat_vec, transpose
from .report import CheckReport, _once

__all__ = [
    "AlgebroidStructure",
    "FrameBivector",
    "tangent_algebroid",
    "cotangent_of_poisson",
    "deform_algebroid",
    "algebroid_torsion",
    "ce_differential",
    "check_bialgebroid",
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

    def _rho(self, comps: list[Poly]) -> list[Poly]:
        """rho(s) = sum_a s_a rho(u_a) on a component list."""
        out = [_Sum(self.chart) for _ in range(self.chart.dim)]
        for s_a, row in zip(comps, self.anchor):
            if s_a:
                for acc, p in zip(out, row):
                    acc.add(s_a, p)
        return [acc.poly() for acc in out]

    def frame_bracket(self, a: int, b: int) -> VForm:
        key, sign = ((a, b), 1) if a < b else ((b, a), -1)
        comps = self.structure.get(key)
        if a == b or comps is None:
            return self.bundle.zero_form(0)
        return VForm.section(self.chart, [sign * p for p in comps])

    def section_bracket(self, s: VForm, t: VForm) -> VForm:
        """[s, t] for polynomial sections, via bilinearity and Leibniz."""
        sc, tc = s.section_components(), t.section_components()
        return self._bracket(sc, self._rho(sc), tc, self._rho(tc))

    def _bracket(self, sc: list[Poly], rho_s: list[Poly], tc: list[Poly],
                 rho_t: list[Poly]) -> VForm:
        """``section_bracket`` on component lists, given rho of both."""
        rank = self.bundle.rank
        out: dict = {}
        for (a, b), comps in self.structure.items():
            acc = _Sum(self.chart)
            acc.add(sc[a], tc[b])
            acc.add(sc[b], tc[a], -1)
            f = acc.poly()
            if f:
                for v, c in enumerate(comps):
                    if c:
                        _accumulate(out, ((), v), c, f)
        for b in range(rank):
            _derive_into(out, ((), b), rho_s, tc[b])
            _derive_into(out, ((), b), rho_t, sc[b], -1)
        return VForm._trusted(self.chart, 0, rank, _sums(out))

    def validate(self) -> CheckReport:
        """Jacobi identity on frame triples, anchor morphism on frame pairs.
        Within a scene run each algebroid is verified once."""
        return _once(AlgebroidStructure._validate, self)

    def _validate(self) -> CheckReport:
        report = CheckReport(f"algebroid on {self.bundle.frame}")
        chart, rank, anchor = self.chart, self.bundle.rank, self.anchor
        units, names = identity(chart, rank), self.bundle.frame
        brackets = {}  # [u_a, u_b] and its rho, once per frame pair a < b
        for a in range(rank):
            for b in range(a + 1, rank):
                comps = self.frame_bracket(a, b).section_components()
                brackets[(a, b)] = comps, self._rho(comps)
                defect = (VForm.section(chart, brackets[(a, b)][1])
                          - vf_bracket(VForm.section(chart, anchor[a]),
                                       VForm.section(chart, anchor[b])))
                report.add_zero("anchor morphism", defect,
                                detail=f"({names[a]},{names[b]})")
        for a in range(rank):
            for b in range(a + 1, rank):
                for c in range(b + 1, rank):
                    jac = (self._bracket(*brackets[(a, b)], units[c], anchor[c])
                           + self._bracket(*brackets[(b, c)], units[a], anchor[a])
                           - self._bracket(*brackets[(a, c)], units[b], anchor[b]))
                    report.add_zero("Jacobi identity", jac,
                                    detail=f"({names[a]},{names[b]},{names[c]})")
        if self.pre_lie_only:
            report.notes.append("structure flagged pre-Lie only")
        return report

    def _lie_on_bivector_into(self, out: dict, rho_s: list[Poly], brackets,
                              P: FrameBivector, sign: int = 1) -> None:
        """Add sign * L_s P, L_s (p u_a ^ u_b) = rho(s)(p) u_a ^ u_b + p [s, u_a] ^ u_b
        + p u_a ^ [s, u_b], into the sums at ``out``, from rho(s) and the
        components of [s, u_a], given for every frame index a that P's keys name."""
        rank = self.bundle.rank
        for (a, b), p in P.coeffs.items():
            _derive_into(out, (a, b), rho_s, p, sign)
            # p [s, u_a] ^ u_b + p u_a ^ [s, u_b], expanded over the frame
            for c in range(rank):
                for x, y, f in ((c, b, brackets[a][c]), (a, c, brackets[b][c])):
                    if f and x != y:
                        _accumulate(out, (min(x, y), max(x, y)), f, p,
                                    sign if x < y else -sign)


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
    out: dict = {}
    for a in range(rank):
        for b in range(a + 1, rank):
            _derive_into(out, (a, b), Astar.anchor[a], comps[b])
            _derive_into(out, (a, b), Astar.anchor[b], comps[a], -1)
            for c, s in zip(Astar.structure.get((a, b), ()), comps):
                _accumulate(out, (a, b), c, s, -1)
    return FrameBivector._trusted(A_bundle, _sums(out))


def check_bialgebroid(A: AlgebroidStructure, Astar: AlgebroidStructure) -> CheckReport:
    """Cocycle condition making (A, A*) a dual pair:

        delta([a, b]) = L_a delta(b) - L_b delta(a)

    with delta the differential induced by A*.  Reported on frame pairs and on
    coordinate-function multiples of frame sections (which exercises the
    anchor compatibility hidden in the Leibniz terms).  The cocycle items run
    only once both structures are valid, and that is load-bearing: for two
    Lie algebroids a vanishing big bracket {mu, gamma} certifies every item
    without forming a probe, and only otherwise are the probe pairs formed
    (see ``_cocycle``).  Within a scene run the cocycle items of a pair are
    computed once.
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
    report.extend(_once(_cocycle, A, Astar))
    return report


def _cocycle(A: AlgebroidStructure, Astar: AlgebroidStructure) -> CheckReport:
    """The cocycle items of ``check_bialgebroid``, for a pair whose two
    structures are already known to be valid.

    For Lie algebroids A and A* in duality, (A, A*) is a Lie bialgebroid
    exactly when the big bracket {mu, gamma} of their degree-3 functions on
    T*[2]A[1] vanishes (Roytenberg 2002; Kosmann-Schwarzbach, "Quasi, twisted,
    and all that", 2005), and a Lie bialgebroid satisfies the cocycle
    condition on all sections (Mackenzie & Xu 1994).  So when {mu, gamma} = 0
    no probe is formed: every probe pair of ``_cocycle_probes`` is reported
    passing, under its label and in its order.  Otherwise ``_cocycle_probes``
    runs and names each failing pair with its defect.  The certificate rests
    on the precondition: for a structure that is not Lie, {mu, gamma} = 0
    proves nothing."""
    rank = A.bundle.rank
    if A.bundle == Astar.bundle.dual() and not _big_bracket(
            _hamiltonian(A, 0), _hamiltonian(Astar, rank), A.chart, rank):
        report = CheckReport("cocycle")
        labels = [label for label, _, _ in _probes(A)]
        for i, la in enumerate(labels):
            for lb in labels[i + 1:]:
                report.add("cocycle condition", True, detail=f"({la},{lb})")
        return report
    return _cocycle_probes(A, Astar)


def _hamiltonian(S: AlgebroidStructure, off: int) -> list[tuple]:
    """The degree-3 function of S on T*[2]A[1],

        mu = sum rho_a^i xi^a p_i - sum_{a<b} c_ab^c xi^a xi^b theta_c,

    as terms (p indices, sorted odd indices, coefficient, sign).  Odd index a
    is xi^a and rank + a is theta_a; ``off = rank`` exchanges xi and theta,
    which gives gamma for the structure on A*."""
    rank = S.bundle.rank
    terms = [((i,), (a + off,), p, 1) for a, row in enumerate(S.anchor)
             for i, p in enumerate(row) if p]
    for (a, b), comps in S.structure.items():
        for c, p in enumerate(comps):
            if p:
                idx, sign = sort_index((a + off, b + off, c + rank - off))
                terms.append(((), idx, p, -sign))
    return terms


def _big_bracket(F: list, G: list, chart: Chart, rank: int) -> dict:
    """The nonzero components {(p indices, odd indices): Poly} of the big
    bracket of two ``_hamiltonian`` term lists, with {p_i, x^j} = delta_i^j
    and {theta_a, xi^b} = {xi^b, theta_a} = delta_a^b:

        {F, G} = sum_i (dF/dp_i dG/dx^i - dF/dx^i dG/dp_i)
                 + sum_a (F <-d/dtheta_a d->/dxi^a G + F <-d/dxi^a d->/dtheta_a G),

    F differentiated from the right in the odd generators and G from the
    left.  Each product goes through ``_Sum``, so the degree bound applies."""
    out: dict = {}
    dF, dG = ([[t[2].diff(i) for i in range(chart.dim)] for t in H] for H in (F, G))

    def add(P: tuple, w: tuple, f: Poly, g: Poly, sign: int) -> None:
        m = sort_index(w)  # None when an odd generator repeats
        if m is not None and f and g:
            _accumulate(out, (tuple(sorted(P)), m[0]), f, g, sign * m[1])
    for (P1, w1, f, s1), df in zip(F, dF):
        for (P2, w2, g, s2), dg in zip(G, dG):
            s = s1 * s2
            if P1:  # F is linear in p_i: d/dp_i F times d/dx^i G
                add(P2, w1 + w2, f, dg[P1[0]], s)
            if P2:
                add(P1, w1 + w2, df[P2[0]], g, -s)
            for j1, u in enumerate(w1):
                v = u - rank if u >= rank else u + rank
                if v in w2:
                    j2 = w2.index(v)
                    add(P1 + P2, w1[:j1] + w1[j1 + 1:] + w2[:j2] + w2[j2 + 1:], f, g,
                        -s if (len(w1) - 1 - j1 + j2) % 2 else s)
    return {key: p for key, p in _sums(out).items() if p}


def _probes(A: AlgebroidStructure) -> list[tuple[str, int, int | None]]:
    """(label, b, k) of each probe section g u_b of the cocycle items, g = x_k
    or 1 for k = None, in report order."""
    chart, names = A.chart, A.bundle.frame
    return [(names[b] if k is None else f"{chart.coords[k]}*{names[b]}", b, k)
            for k in (None, *range(chart.dim)) for b in range(A.bundle.rank)]


def _cocycle_probes(A: AlgebroidStructure, Astar: AlgebroidStructure) -> CheckReport:
    """The cocycle items of ``_cocycle``, each formed on its pair of probe
    sections: delta([s, t]) - L_s delta(t) + L_t delta(s)."""
    report = CheckReport("cocycle")
    chart, rank = A.chart, A.bundle.rank
    units, xs = identity(chart, rank), [Poly.var(chart, c) for c in chart.coords]

    def delta_into(out: dict, g: Poly | None, dt: FrameBivector, t, dg) -> None:
        """Add delta(g t) = g delta(t) + d_* g ^ t, given delta(t) and the
        components of t and of d_* g (g = 1 for None, with no wedge term)."""
        for key, p in dt.coeffs.items():
            _accumulate(out, key, p, g)
        for c, w in enumerate(dg):
            for e, q in enumerate(t):
                if w and q and c != e:
                    _accumulate(out, (min(c, e), max(c, e)), w, q, 1 if c < e else -1)
    # probe g u_b, g = x_k or 1 for k = None; delta, rho and [s, u_c] once each
    probes = []
    for label, b, k in _probes(A):
        sc = units[b] if k is None else [xs[k] if v == b else p
                                          for v, p in enumerate(units[b])]
        rho = A._rho(sc)
        rows = [A._bracket(sc, rho, u, A.anchor[c]).section_components()
                for c, u in enumerate(units)]
        probes.append((label, b, k, ce_differential(Astar, VForm.section(chart, sc)),
                       rho, rows))
    if len(probes) > 1 and A.bundle != Astar.bundle.dual():
        # delta lands in the frame dual to A*'s, L_s in A's: no defect combines them
        raise PolyError("FrameBivector shape mismatch")
    d_xs = list(zip(*Astar.anchor))  # d_* x_k is column k of the dual anchor
    for ia, (la, _, _, da, rho_a, br_a) in enumerate(probes):
        # delta([s, u_b]) and d_* rho(s)^k, once for each b and k a later probe names
        d_br: dict = {}
        d_rho: dict = {}
        for lb, b, k, db, rho_b, br_b in probes[ia + 1:]:
            if b not in d_br:
                d_br[b] = ce_differential(Astar, VForm.section(chart, br_a[b]))
            # [s, g u_b] = g [s, u_b] + f u_b with f = rho(s)(g) = rho(s)^k for g = x_k
            out: dict = {}
            if k is None:  # g = 1
                delta_into(out, None, d_br[b], (), ())
            else:
                delta_into(out, xs[k], d_br[b], br_a[b], d_xs[k])
                f = rho_a[k]
                if f:
                    if k not in d_rho:
                        d_rho[k] = [derivative(r, f) for r in Astar.anchor]
                    delta_into(out, f, probes[b][3], units[b], d_rho[k])
            A._lie_on_bivector_into(out, rho_a, br_a, db, -1)
            A._lie_on_bivector_into(out, rho_b, br_b, da, 1)
            report.add_zero("cocycle condition", FrameBivector._trusted(A.bundle, _sums(out)),
                            detail=f"({la},{lb})")
    return report


def check_im(A: AlgebroidStructure, D: GenDer) -> CheckReport:
    """The four compatibility equations between a degree-1 derivation and an
    anchored bracket, evaluated on frame sections and coordinate fields:

        (1) D_X([a,b]) = [a, D_X(b)] - [b, D_X(a)]
                         + D_{[rho(b),X]}(a) - D_{[rho(a),X]}(b)
        (2) l([a,b])   = [a, l(b)] - D_{rho(b)}(a)
        (3) D^{r,T}_X(rho(a)) = rho(D_X(a))
        (4) r o rho = rho o l

    Within a scene run each (A, D) is checked once.
    """
    return _once(_im_report, A, D)


def _im_report(A: AlgebroidStructure, D: GenDer) -> CheckReport:
    if D.bundle != A.bundle or D.degree != 1:
        raise PolyError("need a degree-1 derivation on the same bundle")
    report = CheckReport("IM equations")
    chart, rank, n = A.chart, A.bundle.rank, A.chart.dim
    names, units = A.bundle.frame, identity(chart, rank)
    anchors = [VForm.section(chart, row) for row in A.anchor]
    coord_fields = [tangent_bundle(chart).frame_section(i) for i in range(n)]
    Du = D.d_frame
    # D_{d/dx_i}(u_b) and its rho once per (b, i)
    DX = [[Du[b].insert_vector(X).section_components() for X in coord_fields]
          for b in range(rank)]
    rho_DX = [[A._rho(c) for c in row] for row in DX]
    l_rows = [v.section_components() for v in D.l_frame]
    rho_l = [A._rho(c) for c in l_rows]
    for a in range(rank):
        for b in range(a + 1, rank):
            ab = A.frame_bracket(a, b)
            D_ab = D.extend(ab)
            for i, X in enumerate(coord_fields):
                defect = (D_ab.insert_vector(X)
                          - A._bracket(units[a], A.anchor[a], DX[b][i], rho_DX[b][i])
                          + A._bracket(units[b], A.anchor[b], DX[a][i], rho_DX[a][i])
                          - Du[a].insert_vector(vf_bracket(anchors[b], X))
                          + Du[b].insert_vector(vf_bracket(anchors[a], X)))
                report.add_zero("IM bracket compatibility", defect,
                                detail=f"({names[a]},{names[b]};d/d{chart.coords[i]})")
            defect2 = (D.apply_l(ab)
                       - A._bracket(units[a], A.anchor[a], l_rows[b], rho_l[b])
                       + Du[a].insert_vector(anchors[b]))
            report.add_zero("IM symbol-bracket compatibility", defect2,
                            detail=f"({names[a]},{names[b]})")
    drT = build_drT(D.r)
    for a in range(rank):
        drT_rho_a = drT.extend(anchors[a])
        for i, X in enumerate(coord_fields):
            defect3 = drT_rho_a.insert_vector(X) - VForm.section(chart, rho_DX[a][i])
            report.add_zero("IM anchor intertwining", defect3,
                            detail=f"({names[a]};d/d{chart.coords[i]})")
    rmat = D.r.matrix()
    im4 = []
    for a in range(rank):
        for j, r_rho in enumerate(mat_vec(rmat, A.anchor[a])):
            p = r_rho - rho_l[a][j]
            if not p.is_zero:
                im4.append(((a, j), p))
    report.add("IM symbol square", not im4,
               defect=None if not im4 else im4,
               detail="r o rho - rho o l")
    return report
