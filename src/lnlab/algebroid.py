"""Lie algebroid structures in a frame, and the IM-equation checker.

An algebroid over a chart is given by its anchor matrix and structure
functions on a fixed frame.  Brackets of arbitrary polynomial sections follow
from the Leibniz rule, so the Jacobi identity and anchor morphism property on
frame tuples certify the structure.  Those laws, the bracket deformed by a
bundle endomorphism and its torsion, and the bialgebroid cocycle are read off
big brackets of the structure's degree-3 function on T*[2]A[1].  The IM
equations of a degree-1 derivation are read off the frame data of the
derivation and the structure, with no section bracket formed (``check_im``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .poly import Chart, Poly, PolyError
from .forms import (Multivector, VForm, _Alternating, _accumulate, _sums, sharp_matrix,
                    schouten, sort_index)
from .gder import FramedBundle, GenDer, cotangent_bundle, tangent_bundle
from .matrix import identity, mat_mul, transpose
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
    return _koszul(pi, not schouten(pi, pi).is_zero)


def _koszul(pi: Multivector, pre_lie_only: bool = False) -> AlgebroidStructure:
    """The bracket data of ``cotangent_of_poisson``, flagged as given, so a
    caller that has formed [pi, pi] or needs no flag does not form it again."""
    n = pi.chart.dim
    anchor = transpose(sharp_matrix(pi))  # row a: sharp(dx_a)
    structure = {(a, b): pi.coeff((a, b)).grad() for a in range(n) for b in range(a + 1, n)}
    return AlgebroidStructure(cotangent_bundle(pi.chart), anchor, structure, pre_lie_only)


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
        """Each term with its partials d/dx^i if ``other`` carries some p
        (none if not), and with (i, the p indices less one p_i, multiplicity
        of p_i) per distinct p_i of its own."""
        ps = {i for t in other for i in t[0]}
        return [(P, w, f, s, f.grad() if ps else [],
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
    anchored bracket (Bursztyn & Drummond, Math. Ann. 2019), evaluated on
    frame sections and coordinate fields:

        (1) D_X([a,b]) = [a, D_X(b)] - [b, D_X(a)]
                         + D_{[rho(b),X]}(a) - D_{[rho(a),X]}(b)
        (2) l([a,b])   = [a, l(b)] - D_{rho(b)}(a)
        (3) D^{r,T}_X(rho(a)) = rho(D_X(a))
        (4) r o rho = rho o l

    Every item is read off the frame data: the columns D_i(u_b) = D_{d_i}(u_b)
    of D(u_b), l(u_b), the anchor rho(u_a) = rho_a^j d_j and the symbol
    r(d_i) = r_i^v d_v with their partials, and the structure functions
    [u_a, u_b] = c_ab^c u_c.  No section bracket, vector-field bracket or
    D^{r,T} is formed:

    * D_X(f u) = f D_X(u) + X(f) l(u) - r(X)(f) u, the Leibniz rule of D,
      gives D_i([u_a, u_b]) from c_ab^c, D_i(u_c) and l(u_c);
    * [u_a, t] = t_c [u_a, u_c] + rho(u_a)(t_c) u_c by Leibniz, for
      t = D_i(u_b) and t = l(u_b);
    * [rho(u_b), d_i] = -d_i rho_b^j d_j, and D(u_a) is a 1-form, so
      D_{[rho(u_b), d_i]}(u_a) = -d_i rho_b^j D_j(u_a) in (1) and
      D_{rho(u_b)}(u_a) = rho_b^j D_j(u_a) in (2);
    * D^{r,T}_X(Y) = [Y, r(X)] - r([Y, X]) (``gder.build_drT``) and
      [Y, d_i] = -d_i Y, the coefficientwise partial (Kolar, Michor & Slovak,
      Natural Operations in Differential Geometry, 1993), so
      D^{r,T}_{d_i}(Y) = [Y, r(d_i)] + r(d_i Y) in (3).

    Each item is one map of sums, finished once.  Within a scene run each
    (A, D) is checked once.
    """
    return _once(_im_report, A, D)


def _im_report(A: AlgebroidStructure, D: GenDer) -> CheckReport:
    if D.bundle != A.bundle or D.degree != 1:
        raise PolyError("need a degree-1 derivation on the same bundle")
    report = CheckReport("IM equations")
    chart, rank, n = A.chart, A.bundle.rank, A.chart.dim
    names, coords = A.bundle.frame, chart.coords

    def entries(pairs) -> list[tuple]:
        """(slot, coefficient, its partials) for each nonzero (slot, coefficient)."""
        return [(v, p, p.grad()) for v, p in pairs if p]
    # D_i(u_b) = DX[b][i], l(u_b), rho(u_a) and r(d_i) = rcol[i]
    DX = [[entries(enumerate(col)) for col in zip(*Db.matrix())] for Db in D.d_frame]
    ls = [entries(enumerate(lb.section_components())) for lb in D.l_frame]
    rho = [entries(enumerate(row)) for row in A.anchor]
    rcol = [entries(enumerate(col)) for col in zip(*D.r.matrix())]
    # [u_a, u_c] as (sign, entries of the structure functions)
    br: dict = {}
    for (a, c), comps in A.structure.items():
        br[a, c] = (1, entries(enumerate(comps)))
        br[c, a] = (-1, br[a, c][1])

    def bracket_into(out: dict, a: int, t: list, sign: int) -> None:
        """Add sign * [u_a, t] for the section t given by its entries."""
        for c, tc, dtc in t:
            s, comps = br.get((a, c), (1, ()))
            for w, q, _ in comps:
                _accumulate(out, ((), w), tc, q, sign * s)
            for j, p, _ in rho[a]:
                if dtc[j]:
                    _accumulate(out, ((), c), p, dtc[j], sign)

    def columns_into(out: dict, fs: list, a: int, sign: int) -> None:
        """Add sign * f_j D_j(u_a) for (j, f_j) in fs."""
        for j, f in fs:
            for w, p, _ in DX[a][j]:
                _accumulate(out, ((), w), f, p, sign)

    def finish(out: dict, vals: int) -> VForm:
        return VForm._trusted(chart, 0, vals, _sums(out))
    for a in range(rank):
        for b in range(a + 1, rank):
            c_ab = br.get((a, b), (1, ()))[1]
            for i in range(n):
                out: dict = {}
                for c, f, df in c_ab:  # D_i([u_a, u_b])
                    columns_into(out, [(i, f)], c, 1)
                    if df[i]:
                        for w, p, _ in ls[c]:
                            _accumulate(out, ((), w), df[i], p)
                    for v, q, _ in rcol[i]:
                        if df[v]:
                            _accumulate(out, ((), c), q, df[v], -1)
                bracket_into(out, a, DX[b][i], -1)
                bracket_into(out, b, DX[a][i], 1)
                columns_into(out, [(j, dp[i]) for j, _, dp in rho[b] if dp[i]], a, 1)
                columns_into(out, [(j, dp[i]) for j, _, dp in rho[a] if dp[i]], b, -1)
                report.add_zero("IM bracket compatibility", finish(out, rank),
                                detail=f"({names[a]},{names[b]};d/d{coords[i]})")
            out = {}
            for c, f, _ in c_ab:  # l([u_a, u_b])
                for w, p, _ in ls[c]:
                    _accumulate(out, ((), w), f, p)
            bracket_into(out, a, ls[b], -1)
            columns_into(out, [(j, p) for j, p, _ in rho[b]], a, 1)
            report.add_zero("IM symbol-bracket compatibility", finish(out, rank),
                            detail=f"({names[a]},{names[b]})")
    for a in range(rank):
        for i in range(n):
            out = {}
            for v, q, dq in rcol[i]:  # [rho(u_a), r(d_i)]
                for j, p, dp in rho[a]:
                    if dq[j]:
                        _accumulate(out, ((), v), p, dq[j])
                    if dp[v]:
                        _accumulate(out, ((), j), q, dp[v], -1)
            for j, _, dp in rho[a]:  # r(d_i rho(u_a))
                if dp[i]:
                    for v, q, _ in rcol[j]:
                        _accumulate(out, ((), v), dp[i], q)
            for c, t, _ in DX[a][i]:  # rho(D_i(u_a))
                for j, p, _ in rho[c]:
                    _accumulate(out, ((), j), t, p, -1)
            report.add_zero("IM anchor intertwining", finish(out, n),
                            detail=f"({names[a]};d/d{coords[i]})")
    im4 = []
    for a in range(rank):
        out = {}
        for v, p, _ in rho[a]:  # r(rho(u_a))
            for j, q, _ in rcol[v]:
                _accumulate(out, j, q, p)
        for c, t, _ in ls[a]:  # rho(l(u_a))
            for j, p, _ in rho[c]:
                _accumulate(out, j, t, p, -1)
        im4 += [((a, j), p) for j, p in sorted(_sums(out).items()) if p]
    report.add("IM symbol square", not im4,
               defect=None if not im4 else im4,
               detail="r o rho - rho o l")
    return report
