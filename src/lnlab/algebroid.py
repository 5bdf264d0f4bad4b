"""Lie algebroid structures in a frame, and the IM-equation checker.

An algebroid over a chart is given by its anchor matrix and structure
functions on a fixed frame.  Brackets of arbitrary polynomial sections follow
from the Leibniz rule, so the Jacobi identity and anchor morphism property on
frame tuples certify the structure.  Those laws, the bracket deformed by a
bundle endomorphism and its torsion, and the bialgebroid cocycle are read off
big brackets of the structure's degree-3 function on T*[2]A[1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .poly import Chart, Poly, PolyError, _Sum
from .forms import (Multivector, VForm, _Alternating, _accumulate, _derive_into,
                    _sums, sharp_matrix, schouten, sort_index, vf_bracket)
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

    def _bracket(self, sc: list[Poly], rho_s: list[Poly], tc: list[Poly],
                 rho_t: list[Poly]) -> VForm:
        """[s, t] for polynomial sections given as component lists, with rho
        of both, via bilinearity and Leibniz."""
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
        """Jacobi identity on frame triples, anchor morphism on frame pairs,
        read off M = {mu, mu} for the degree-3 function mu of the structure
        (``_hamiltonian``): mu is a Lie algebroid exactly when M = 0 (Roytenberg
        2002), and by derived brackets (Kosmann-Schwarzbach 2004) the defect
        rho([u_a, u_b]) - [rho(u_a), rho(u_b)] is -1/2 the xi^a xi^b p_i
        components of M, and [[u_a, u_b], u_c] + cyclic is +1/2 its
        xi^a xi^b xi^c theta_d components.  Within a scene run each algebroid
        is verified once."""
        return _once(AlgebroidStructure._validate, self)

    def _validate(self) -> CheckReport:
        report = CheckReport(f"algebroid on {self.bundle.frame}")
        chart, rank, names = self.chart, self.bundle.rank, self.bundle.frame
        mu = _hamiltonian(self, 0)
        M = {(P, w): p for P, w, p, _ in _big_bracket(mu, mu, rank)}
        half = Fraction(1, 2)
        for a in range(rank):
            for b in range(a + 1, rank):
                report.add_zero("anchor morphism", VForm.section(chart, _read(
                    chart, M, [((i,), (a, b)) for i in range(chart.dim)], -half)),
                    detail=f"({names[a]},{names[b]})")
        for a in range(rank):
            for b in range(a + 1, rank):
                for c in range(b + 1, rank):
                    report.add_zero("Jacobi identity", VForm.section(chart, _read(
                        chart, M, [((), (a, b, c, rank + d)) for d in range(rank)], half)),
                        detail=f"({names[a]},{names[b]},{names[c]})")
        if self.pre_lie_only:
            report.notes.append("structure flagged pre-Lie only")
        return report


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


def deform_algebroid(A: AlgebroidStructure, M: list[list[Poly]]) -> AlgebroidStructure:
    """Bracket deformed by a bundle endomorphism (frame matrix M):

        [a, b]_M = [M a, b] + [a, M b] - M([a, b]),    anchor rho o M.

    Its degree-3 function is {N, mu} for N = sum M[c][b] xi^b theta_c
    (``_endomorphism``; Kosmann-Schwarzbach, "Derived brackets", 2004), read
    back into anchor and structure functions by ``_algebroid``.  A Lie
    algebroid again exactly when the torsion of M vanishes.
    """
    rank = A.bundle.rank
    return _algebroid(A.bundle, _big_bracket(_endomorphism(M, rank), _hamiltonian(A, 0), rank))


def algebroid_torsion(A: AlgebroidStructure, M: list[list[Poly]]) -> CheckReport:
    """Torsion of a bundle endomorphism with respect to the algebroid bracket,

        N(a, b) = [M a, M b] - M([a, b]_M),

    evaluated on frame pairs.  N(u_a, u_b) is -1/2 the xi^a xi^b theta_c
    components of {N, {N, mu}} - {N^2, mu} (Kosmann-Schwarzbach 2004)."""
    chart, rank, names = A.chart, A.bundle.rank, A.bundle.frame
    N, mu = _endomorphism(M, rank), _hamiltonian(A, 0)
    T = {(P, w): p for P, w, p, _ in _big_bracket(N, _big_bracket(N, mu, rank), rank)}
    for P, w, p, _ in _big_bracket(_endomorphism(mat_mul(M, M), rank), mu, rank):
        T[(P, w)] = T[(P, w)] - p if (P, w) in T else -p
    report = CheckReport("endomorphism torsion")
    for a in range(rank):
        for b in range(a + 1, rank):
            report.add_zero("torsion component", VForm.section(chart, _read(
                chart, T, [((), (a, b, rank + c)) for c in range(rank)], Fraction(-1, 2))),
                detail=f"({names[a]},{names[b]})")
    return report


def check_bialgebroid(A: AlgebroidStructure, Astar: AlgebroidStructure) -> CheckReport:
    """Cocycle condition making (A, A*) a dual pair:

        delta([a, b]) = L_a delta(b) - L_b delta(a)

    with delta the differential induced by A*.  Reported on frame pairs and on
    coordinate-function multiples of frame sections (which exercises the
    anchor compatibility hidden in the Leibniz terms).  The cocycle items run
    only once both structures are valid, and that is load-bearing: each item
    is read off the big bracket {mu, gamma} (see ``_cocycle``), and for two
    Lie algebroids its vanishing certifies every item at once.  Within a
    scene run the cocycle items of a pair are computed once.
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
    exactly when Theta = {mu, gamma}, the big bracket of their degree-3
    functions on T*[2]A[1], vanishes (Roytenberg 2002; Kosmann-Schwarzbach,
    "Quasi, twisted, and all that", 2005), and a Lie bialgebroid satisfies the
    cocycle condition on all sections (Mackenzie & Xu 1994).  So when Theta = 0
    every probe pair is reported passing, under its label and in its order,
    and no probe is formed.  Otherwise the defect of the probe pair (s, t),
    s = g theta_b for the probe g u_b, is -{{s, Theta}, t} (derived brackets,
    Kosmann-Schwarzbach 2004; the sign is the graded Jacobi identity), whose
    theta_a theta_b components are the frame bivector's: Theta has weight 0
    when xi counts +1 and theta -1, so nothing else survives.  The
    certificate rests on the precondition: for a structure that is not Lie,
    Theta = 0 proves nothing."""
    if A.bundle != Astar.bundle.dual():
        # Theta pairs A's theta_a with A*'s xi^a, and each defect is a bivector of A
        raise PolyError("FrameBivector shape mismatch")
    chart, rank = A.chart, A.bundle.rank
    theta = _big_bracket(_hamiltonian(A, 0), _hamiltonian(Astar, rank), rank)
    report = CheckReport("cocycle")
    probes = _probes(A)
    if not theta:
        for i, (la, _, _) in enumerate(probes):
            for lb, _, _ in probes[i + 1:]:
                report.add("cocycle condition", True, detail=f"({la},{lb})")
        return report
    one, xs = Poly.const(chart, 1), [Poly.var(chart, c) for c in chart.coords]
    probes = [(label, rank + b, one if k is None else xs[k]) for label, b, k in probes]
    # {-s, Theta} for s = g theta_b, once for each probe that opens a pair: the
    # defect of (s, t) is {{-s, Theta}, t}
    s_theta = [_big_bracket([((), (u,), g, -1)], theta, rank) for _, u, g in probes[:-1]]
    for i, (la, _, _) in enumerate(probes):
        for lb, u, g in probes[i + 1:]:
            defect = _big_bracket(s_theta[i], [((), (u,), g, 1)], rank)
            report.add_zero("cocycle condition", FrameBivector._trusted(
                A.bundle, {(w[0] - rank, w[1] - rank): p for _, w, p, _ in defect}),
                detail=f"({la},{lb})")
    return report


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


def _endomorphism(M: list[list[Poly]], rank: int) -> list[tuple]:
    """N = sum M[c][b] xi^b theta_c, in ``_hamiltonian``'s form, for a rank x
    rank frame matrix M (M u_b = sum_c M[c][b] u_c)."""
    if len(M) != rank or any(len(row) != rank for row in M):
        raise PolyError("endomorphism must be a rank x rank matrix")
    return [((), (b, rank + c), p, 1) for c, row in enumerate(M) for b, p in enumerate(row) if p]


def _algebroid(bundle: FramedBundle, mu: list) -> AlgebroidStructure:
    """The inverse of ``_hamiltonian`` at ``off = 0`` on a term list that
    ``_big_bracket`` returned: anchor[a][i] is the p_i xi^a coefficient and
    structure[(a, b)][c] minus the xi^a xi^b theta_c one."""
    chart, rank = bundle.chart, bundle.rank
    T = {(P, w): p for P, w, p, _ in mu}
    return AlgebroidStructure(
        bundle,
        [_read(chart, T, [((i,), (a,)) for i in range(chart.dim)]) for a in range(rank)],
        {(a, b): _read(chart, T, [((), (a, b, rank + c)) for c in range(rank)], -1)
         for a in range(rank) for b in range(a + 1, rank)})


def _read(chart: Chart, T: dict, keys: list, scale: int | Fraction = 1) -> list[Poly]:
    """scale times T[k] for each key k, zero where T has no such key."""
    return [T[k] * scale if k in T else Poly.zero(chart) for k in keys]


def _big_bracket(F: list, G: list, rank: int) -> list[tuple]:
    """The big bracket of two term lists in the form of ``_hamiltonian``'s,
    as such a list again, one term per nonzero component, with
    {p_i, x^j} = delta_i^j and {theta_a, xi^b} = {xi^b, theta_a} = delta_a^b:

        {F, G} = sum_i (dF/dp_i dG/dx^i - dF/dx^i dG/dp_i)
                 + sum_a (F <-d/dtheta_a d->/dxi^a G + F <-d/dxi^a d->/dtheta_a G),

    F differentiated from the right in the odd generators and G from the
    left.  A term may carry several p (p indices sorted, repeats allowed):
    d/dp_i takes each distinct p_i once, weighted by its multiplicity.  Each
    product goes through ``_Sum``, so the degree bound applies."""
    out: dict = {}

    def prep(H: list, other: list) -> list[tuple]:
        """Each term with its partials d/dx^i where ``other`` carries p_i, and
        with (i, the p indices less one p_i, multiplicity of p_i) per
        distinct p_i of its own."""
        ps = {i for t in other for i in t[0]}
        return [(P, w, f, s, {i: f.diff(i) for i in ps},
                 [(i, P[:j] + P[j + 1:], P.count(i)) for j, i in enumerate(P)
                  if i not in P[:j]]) for P, w, f, s in H]

    def add(P: tuple, w: tuple, f: Poly, g: Poly, sign: int) -> None:
        if f and g:
            m = sort_index(w)  # None when an odd generator repeats
            if m is not None:
                _accumulate(out, (tuple(sorted(P)), m[0]), f, g, sign * m[1])
    Gp = prep(G, F)
    for P1, w1, f, s1, df, dp1 in Gp if F is G else prep(F, G):
        for P2, w2, g, s2, dg, dp2 in Gp:
            s = s1 * s2
            for i, rest, m in dp1:  # d/dp_i F times d/dx^i G
                add(rest + P2, w1 + w2, f, dg[i], s * m)
            for i, rest, m in dp2:
                add(P1 + rest, w1 + w2, df[i], g, -s * m)
            for j1, u in enumerate(w1):
                v = u - rank if u >= rank else u + rank
                if v in w2:
                    j2 = w2.index(v)
                    add(P1 + P2, w1[:j1] + w1[j1 + 1:] + w2[:j2] + w2[j2 + 1:], f, g,
                        -s if (len(w1) - 1 - j1 + j2) % 2 else s)
    return [(P, w, p, 1) for (P, w), p in _sums(out).items() if p]


def _probes(A: AlgebroidStructure) -> list[tuple[str, int, int | None]]:
    """(label, b, k) of each probe section g u_b of the cocycle items, g = x_k
    or 1 for k = None, in report order."""
    chart, names = A.chart, A.bundle.frame
    return [(names[b] if k is None else f"{chart.coords[k]}*{names[b]}", b, k)
            for k in (None, *range(chart.dim)) for b in range(A.bundle.rank)]


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
