"""Generalized derivations of a framed bundle.

A generalized derivation of degree k on a framed bundle E is a triple
(D, l, r):

* D sends sections of E to E-valued k-forms,
* l is an endomorphism-valued (k-1)-form (absent when k = 0),
* r is a tangent-valued k-form (the symbol),

tied together by the Leibniz rule

    D(f u) = f D(u) + df ^ l(u) - <df, r> (x) u.

Everything is stored by its values on the frame, so D is determined by
finitely many polynomial coefficients and identities between derivations are
decidable by exact zero-testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .poly import Chart, Poly, PolyError
from .forms import (DiffForm, VForm, exterior_d, frolicher_nijenhuis,
                    lie_derivative_vvf, vf_bracket)
from .matrix import mat_vec, transpose

__all__ = [
    "FramedBundle",
    "GenDer",
    "tangent_bundle",
    "cotangent_bundle",
    "bracket",
    "dual",
    "build_drT",
    "build_drTstar",
    "build_from_connection",
    "build_from_theta",
]


@dataclass(frozen=True)
class FramedBundle:
    """A trivialized vector bundle over a chart: base coordinates plus a
    global frame of sections, identified by name."""

    chart: Chart
    frame: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.frame)

    def dual(self) -> "FramedBundle":
        return FramedBundle(self.chart, tuple(_dual_name(f) for f in self.frame))

    def frame_section(self, a: int) -> VForm:
        comps = [Poly.zero(self.chart)] * self.rank
        comps[a] = Poly.const(self.chart, 1)
        return VForm.section(self.chart, comps)

    def zero_form(self, degree: int) -> VForm:
        return VForm.zero(self.chart, degree, self.rank)


def _dual_name(name: str) -> str:
    # tangent and cotangent frames are each other's duals
    if name.startswith("@"):
        return "d" + name[1:]
    if name.startswith("d"):
        return "@" + name[1:]
    return name[:-1] if name.endswith("*") else name + "*"


def tangent_bundle(chart: Chart) -> FramedBundle:
    return FramedBundle(chart, tuple(f"@{c}" for c in chart.coords))


def cotangent_bundle(chart: Chart) -> FramedBundle:
    return FramedBundle(chart, tuple(f"d{c}" for c in chart.coords))


@dataclass
class GenDer:
    """Generalized derivation, stored through its frame values.

    ``d_frame[a]`` is D(u_a), an E-valued k-form; ``l_frame[a]`` is l(u_a),
    an E-valued (k-1)-form (None for degree 0); ``r`` is the symbol.
    """

    bundle: FramedBundle
    degree: int
    d_frame: list[VForm]
    l_frame: list[VForm] | None
    r: VForm

    def __post_init__(self) -> None:
        chart, rank, k = self.bundle.chart, self.bundle.rank, self.degree
        if len(self.d_frame) != rank:
            raise PolyError("d_frame length must equal the bundle rank")
        for v in self.d_frame:
            if (v.chart, v.degree, v.vals) != (chart, k, rank):
                raise PolyError("d_frame entry has wrong shape")
        if k == 0:
            if self.l_frame is not None:
                raise PolyError("degree-0 derivations carry no l component")
        else:
            if self.l_frame is None or len(self.l_frame) != rank:
                raise PolyError("l_frame must list one value per frame section")
            for v in self.l_frame:
                if (v.chart, v.degree, v.vals) != (chart, k - 1, rank):
                    raise PolyError("l_frame entry has wrong shape")
        if (self.r.chart, self.r.degree, self.r.vals) != (chart, k, chart.dim):
            raise PolyError("symbol must be a tangent-valued form of the same degree")

    # -- evaluation --------------------------------------------------------

    def r_pair(self, a: DiffForm) -> DiffForm:
        """The scalar k-form <a, r> for a 1-form a."""
        chart = self.bundle.chart
        return self.r.contract_value([a.coeff((i,)) for i in range(chart.dim)])

    def apply(self, section: VForm) -> VForm:
        """D on an arbitrary polynomial section, via the Leibniz rule."""
        return self.extend(section)

    def apply_l(self, section: VForm) -> VForm:
        """l on a section; function-linear."""
        if self.l_frame is None:
            raise PolyError("degree-0 derivation has no l")
        out = self.bundle.zero_form(self.degree - 1)
        for a, f in enumerate(section.section_components()):
            if not f.is_zero:
                out = out + self.l_frame[a] * f
        return out

    def extend(self, eta: VForm) -> VForm:
        """Extension to E-valued forms.

        On a decomposable a (x) u with u a frame section and a a j-form:

            D(a (x) u) = a ^ D(u)
                         + (-1)^j da ^ l(u)
                         - (-1)^(j k) (L_r a) (x) u
        """
        chart, k = self.bundle.chart, self.degree
        j = eta.degree
        if eta.vals != self.bundle.rank or eta.chart != chart:
            raise PolyError("argument does not live in this bundle")
        out = self.bundle.zero_form(j + k)
        sj = (-1) ** j
        sjk = -((-1) ** (j * k))
        for alpha, a in eta.decomposables():
            out = out + self.d_frame[a].wedge_scalar(alpha)
            if self.l_frame is not None:
                out = out + self.l_frame[a].wedge_scalar(exterior_d(alpha)) * sj
            lr = lie_derivative_vvf(self.r, alpha)
            if not lr.is_zero:
                term = VForm._trusted(chart, j + k, self.bundle.rank,
                                      {(idx, a): p * sjk for idx, p in lr.coeffs.items()})
                out = out + term
        return out

    def leibniz_defect(self, f: Poly, section: VForm) -> VForm:
        """D(f u) - f D(u) - df ^ l(u) + <df, r> (x) u; zero by construction,
        kept as an executable statement of the rule."""
        df = exterior_d(DiffForm.from_poly(f))
        out = self.apply(section * f) - self.apply(section) * f
        if self.l_frame is not None:
            out = out - self.apply_l(section).wedge_scalar(df)
        rdf = self.r_pair(df)
        for a, g in enumerate(section.section_components()):
            if g.is_zero:
                continue
            comp = rdf * g
            out = out + VForm._trusted(self.bundle.chart, self.degree, self.bundle.rank,
                                       {(idx, a): p for idx, p in comp.coeffs.items()})
        return out

    def __add__(self, other: "GenDer") -> "GenDer":
        if self.bundle != other.bundle or self.degree != other.degree:
            raise PolyError("can only add derivations of equal shape")
        lf = None
        if self.l_frame is not None:
            lf = [a + b for a, b in zip(self.l_frame, other.l_frame)]
        return GenDer(self.bundle, self.degree,
                      [a + b for a, b in zip(self.d_frame, other.d_frame)],
                      lf, self.r + other.r)

    def __sub__(self, other: "GenDer") -> "GenDer":
        return self + (-other)

    def __neg__(self) -> "GenDer":
        lf = None if self.l_frame is None else [-v for v in self.l_frame]
        return GenDer(self.bundle, self.degree, [-v for v in self.d_frame],
                      lf, -self.r)

    @property
    def is_zero(self) -> bool:
        return (all(v.is_zero for v in self.d_frame) and self.r.is_zero
                and (self.l_frame is None or all(v.is_zero for v in self.l_frame)))

    @staticmethod
    def zero(bundle: FramedBundle, degree: int) -> "GenDer":
        k = degree
        lf = None if k == 0 else [bundle.zero_form(k - 1) for _ in range(bundle.rank)]
        return GenDer(bundle, k, [bundle.zero_form(k) for _ in range(bundle.rank)],
                      lf, VForm.zero(bundle.chart, k, bundle.chart.dim))


def _l_on_valued_form(D: GenDer, eta: VForm) -> VForm:
    """Function-linear extension of l to E-valued forms: l(a (x) u) = a ^ l(u)."""
    out = D.bundle.zero_form(eta.degree + D.degree - 1)
    for alpha, a in eta.decomposables():
        out = out + D.l_frame[a].wedge_scalar(alpha)
    return out


def bracket(D1: GenDer, D2: GenDer) -> GenDer:
    """Graded bracket of generalized derivations (degree k1 + k2):

        D  = (D2 o D1 - (-1)^(k1 k2) D1 o D2) on sections,
        l  = [D2, l1] - (-1)^(k1 k2) [D1, l2] on sections,
        r  = Frolicher-Nijenhuis bracket of the symbols,

    with [D, l'] the graded commutator of the extended operators.
    """
    if D1.bundle != D2.bundle:
        raise PolyError("derivations act on different bundles")
    k1, k2 = D1.degree, D2.degree
    sign = (-1) ** (k1 * k2)
    bundle = D1.bundle
    d_out: list[VForm] = []
    l_out: list[VForm] = []
    k = k1 + k2
    for a in range(bundle.rank):
        u = bundle.frame_section(a)
        d_val = D2.extend(D1.apply(u)) - D1.extend(D2.apply(u)) * sign
        d_out.append(d_val)
        if k == 0:
            continue
        # graded commutators [D2, l1] and [D1, l2] on the frame section
        parts = bundle.zero_form(k - 1)
        if D1.l_frame is not None:
            s = (-1) ** (k2 * (k1 - 1))
            parts = parts + D2.extend(D1.apply_l(u)) - _l_on_valued_form(D1, D2.apply(u)) * s
        if D2.l_frame is not None:
            s = (-1) ** (k1 * (k2 - 1))
            t = D1.extend(D2.apply_l(u)) - _l_on_valued_form(D2, D1.apply(u)) * s
            parts = parts - t * sign
        l_out.append(parts)
    r_out = frolicher_nijenhuis(D1.r, D2.r)
    return GenDer(bundle, k, d_out, l_out if k > 0 else None, r_out)


def dual(D: GenDer) -> GenDer:
    """Dual derivation on the dual frame, same degree and symbol:

        <D*(xi), u> = d<xi, l(u)> - <xi, D(u)>    on frame pairs,
        <l*(xi), u> = <xi, l(u)>.
    """
    bundle = D.bundle
    rank, k = bundle.rank, D.degree
    d_out: list[VForm] = []
    l_out: list[VForm] = [] if k > 0 else None
    for b in range(rank):
        comps = []
        lcomps = []
        for a in range(rank):
            da = -D.d_frame[a].component(b)
            if D.l_frame is not None:
                lb = D.l_frame[a].component(b)
                da = da + exterior_d(lb)
                lcomps.append(lb)
            comps.append(da)
        d_out.append(VForm.from_components(comps, k))
        if k > 0:
            l_out.append(VForm.from_components(lcomps, k - 1))
    return GenDer(bundle.dual(), k, d_out, l_out, D.r)


def build_drT(r: VForm) -> GenDer:
    """Derivation on the tangent frame induced by a tangent-valued k-form:

        D(Y) = [Y, r]  (Lie derivative of r along Y),  l = i_. r, symbol r.

    For k = 1 this is D_X(Y) = [Y, r(X)] - r([Y, X]).
    """
    chart = r.chart
    if r.vals != chart.dim:
        raise PolyError("expected a tangent-valued form")
    bundle = tangent_bundle(chart)
    d_out = []
    l_out = [] if r.degree > 0 else None
    for a in range(chart.dim):
        e_a = bundle.frame_section(a)
        d_out.append(frolicher_nijenhuis(e_a, r))
        if l_out is not None:
            l_out.append(r.insert_vector(e_a))
    return GenDer(bundle, r.degree, d_out, l_out, r)


def build_drTstar(r: VForm) -> GenDer:
    """Degree-1 derivation on the cotangent frame induced by an endomorphism:

        D_X(a) = L_X(a o r) - L_{r(X)} a,   l = transpose of r, symbol r.
    """
    chart = r.chart
    if r.degree != 1 or r.vals != chart.dim:
        raise PolyError("expected a degree-1 tangent-valued form")
    n = chart.dim
    bundle = cotangent_bundle(chart)
    rm = r.matrix()  # rm[v][i] = component v of r(d/dx_i)
    d_out = []
    l_out = []
    for b in range(n):
        coeffs = {}
        for i in range(n):
            for a in range(n):
                coeffs[((i,), a)] = rm[b][a].diff(i) - rm[b][i].diff(a)
        d_out.append(VForm(chart, 1, n, coeffs))
        l_out.append(VForm.section(chart, [rm[b][a] for a in range(n)]))
    return GenDer(bundle, 1, d_out, l_out, r)


def build_from_connection(bundle: FramedBundle,
                          gamma: Sequence[Sequence[Sequence[Poly]]],
                          l_frame: Sequence[VForm],
                          r: VForm) -> GenDer:
    """Assemble a degree-k derivation from connection coefficients:

        D_(X1..Xk)(u) = sum_i (-1)^(i+1) l_(X1..^Xi..Xk)(grad_{Xi} u)
                        - grad_{r(X1..Xk)} u

    with grad_{d/dx_i} u_a = sum_b gamma[i][b][a] u_b.
    """
    chart = bundle.chart
    n, rank, k = chart.dim, bundle.rank, r.degree
    from itertools import combinations

    def nabla(i: int, comps: Sequence[Poly]) -> list[Poly]:
        return mat_vec(gamma[i], comps)

    d_out = []
    for a in range(rank):
        ua = bundle.frame_section(a).section_components()
        coeffs: dict[tuple[tuple[int, ...], int], Poly] = {}
        for I in combinations(range(n), k):
            val = [Poly.zero(chart)] * rank
            for t, i in enumerate(I):
                rest = I[:t] + I[t + 1:]
                parts = [l_frame[b].value_at(rest) for b in range(rank)]
                lv = mat_vec(transpose(parts), nabla(i, ua))
                s = (-1) ** t
                val = [v + s * w for v, w in zip(val, lv)]
            rI = r.value_at(I)
            grad = [Poly.zero(chart)] * rank
            for i in range(n):
                if rI[i].is_zero:
                    continue
                nab = nabla(i, ua)
                grad = [g + rI[i] * w for g, w in zip(grad, nab)]
            val = [v - g for v, g in zip(val, grad)]
            for c in range(rank):
                coeffs[(I, c)] = val[c]
        d_out.append(VForm(chart, k, rank, coeffs))
    return GenDer(bundle, k, d_out, list(l_frame) if k > 0 else None, r)


def build_from_theta(A, theta: VForm) -> GenDer:
    """Degree-1 derivation on an anchored bracket bundle from a bundle map
    theta: TM -> A:

        D_X(a) = [a, theta(X)] - theta([rho(a), X]),
        l = theta o rho,  r = rho o theta.

    ``A`` must expose ``bundle``, ``anchor_of`` (section -> vector field) and
    ``section_bracket``.
    """
    bundle: FramedBundle = A.bundle
    chart = bundle.chart
    n, rank = chart.dim, bundle.rank
    if (theta.degree, theta.vals) != (1, rank):
        raise PolyError("theta must be a 1-form valued in the bundle")
    d_out = []
    l_out = []
    r_coeffs: dict[tuple[tuple[int, ...], int], Poly] = {}
    coord_fields = [tangent_bundle(chart).frame_section(i) for i in range(n)]
    theta_cols = [theta.apply_endo(X) for X in coord_fields]
    for i in range(n):
        rho_theta = A.anchor_of(theta_cols[i])
        for j, p in enumerate(rho_theta.section_components()):
            r_coeffs[((i,), j)] = p
    r = VForm(chart, 1, n, r_coeffs)
    for a in range(rank):
        ua = bundle.frame_section(a)
        rho_a = A.anchor_of(ua)
        coeffs: dict[tuple[tuple[int, ...], int], Poly] = {}
        for i in range(n):
            br = A.section_bracket(ua, theta_cols[i])
            lie = vf_bracket(rho_a, coord_fields[i])
            val = br - theta.apply_endo(lie)
            for v, p in enumerate(val.section_components()):
                coeffs[((i,), v)] = p
        d_out.append(VForm(chart, 1, rank, coeffs))
        l_out.append(theta.apply_endo(rho_a))
    return GenDer(bundle, 1, d_out, l_out, r)
