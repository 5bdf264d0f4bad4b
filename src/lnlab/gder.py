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
from .forms import (VForm, _accumulate, _d_into, _interior_vvf_into, _sums, _wedge_into,
                    exterior_d, frolicher_nijenhuis, interior_vvf)

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

    def _slots(self, eta: VForm):
        """The nonzero value slots of an E-valued form; PolyError outside E."""
        if eta.vals != self.bundle.rank or eta.chart != self.bundle.chart:
            raise PolyError("argument does not live in this bundle")
        return eta.slot_components().items()

    def apply_l(self, eta: VForm) -> VForm:
        """Function-linear extension of l to E-valued forms:

            l(a (x) u) = a ^ l(u)    for u a frame section.
        """
        if self.l_frame is None:
            raise PolyError("degree-0 derivation has no l")
        out: dict = {}
        self._l_into(out, eta, 1)
        return self._finish(eta.degree + self.degree - 1, out)

    def extend(self, eta: VForm) -> VForm:
        """Extension to E-valued forms.

        On a decomposable a (x) u with u a frame section and a a j-form:

            D(a (x) u) = a ^ D(u)
                         + (-1)^j da ^ l(u)
                         - (-1)^(j k) (L_r a) (x) u

        Each term is linear over constants in a, so it acts once per value slot;
        da serves both the l-term and L_r a = i_r da + (-1)^k d(i_r a).  Every
        term, L_r a's two parts included, goes straight into one map per
        result, which is finished once.
        """
        out: dict = {}
        self._extend_into(out, eta, 1)
        return self._finish(eta.degree + self.degree, out)

    def _l_into(self, out: dict, eta: VForm, sign: int) -> None:
        """Add ``sign * apply_l(eta)`` into the sums at ``out``."""
        for a, alpha in self._slots(eta):
            _wedge_into(out, alpha, self.l_frame[a], sign)

    def _extend_into(self, out: dict, eta: VForm, sign: int) -> None:
        """Add ``sign * extend(eta)`` into the sums at ``out``."""
        j, k, r = eta.degree, self.degree, self.r
        lie_sign = -sign * (-1) ** (j * k)
        for a, alpha in self._slots(eta):
            _wedge_into(out, alpha, self.d_frame[a], sign)
            dalpha = exterior_d(alpha)
            if self.l_frame is not None:
                _wedge_into(out, dalpha, self.l_frame[a], sign * (-1) ** j)
            # L_r alpha = i_r d alpha + (-1)^k d i_r alpha, in slot a
            _interior_vvf_into(out, r, dalpha, lie_sign, a)
            if j:
                _d_into(out, interior_vvf(r, alpha), lie_sign * (-1) ** k, a)

    def _finish(self, degree: int, out: dict) -> VForm:
        """The E-valued ``degree``-form of the sums at ``out``."""
        return VForm._trusted(self.bundle.chart, degree, self.bundle.rank, _sums(out))

    def __neg__(self) -> "GenDer":
        lf = None if self.l_frame is None else [-v for v in self.l_frame]
        return GenDer(self.bundle, self.degree, [-v for v in self.d_frame],
                      lf, -self.r)


def bracket(D1: GenDer, D2: GenDer) -> GenDer:
    """Graded bracket of generalized derivations (degree k1 + k2):

        D  = (D2 o D1 - (-1)^(k1 k2) D1 o D2) on sections,
        l  = [D2, l1] - (-1)^(k1 k2) [D1, l2] on sections,
        r  = Frolicher-Nijenhuis bracket of the symbols,

    with [D, l'] the graded commutator of the extended operators.
    """
    if D1.bundle != D2.bundle:
        raise PolyError("derivations act on different bundles")
    k = D1.degree + D2.degree
    sign = (-1) ** (D1.degree * D2.degree)
    # each half (A, B, s) adds s * B o A and s times its part of l; [D, D] for
    # D of degree j is (1 - (-1)^(j j)) D o D: one half, doubled, or none for even j
    if D1 is not D2:
        halves = [(D1, D2, 1), (D2, D1, -sign)]
    else:
        halves = [(D1, D1, 2)] if sign == -1 else []
    d_out: list[VForm] = []
    l_out: list[VForm] = []
    for a in range(D1.bundle.rank):
        d_val: dict = {}
        parts: dict = {}  # the graded commutators [B, l_A] on the frame section
        for A, B, s in halves:
            B._extend_into(d_val, A.d_frame[a], s)
            if A.l_frame is not None:
                B._extend_into(parts, A.l_frame[a], s)
                A._l_into(parts, B.d_frame[a], -s * (-1) ** (B.degree * (A.degree - 1)))
        d_out.append(D1._finish(k, d_val))
        if k:
            l_out.append(D1._finish(k - 1, parts))
    r_out = frolicher_nijenhuis(D1.r, D2.r)
    return GenDer(D1.bundle, k, d_out, l_out if k > 0 else None, r_out)


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

    For k = 1 this is D_X(Y) = [Y, r(X)] - r([Y, X]).  [d/dx_a, r] = L_(d/dx_a) r
    (Kolar, Michor & Slovak, Natural Operations in Differential Geometry, 1993)
    is d_a r, coefficient by coefficient, as d/dx_a kills dx_i and d/dx_v.
    """
    chart = r.chart
    if r.vals != chart.dim:
        raise PolyError("expected a tangent-valued form")
    bundle = tangent_bundle(chart)
    d_out = []
    l_out = [] if r.degree > 0 else None
    for a in range(chart.dim):
        d_out.append(VForm._trusted(chart, r.degree, chart.dim,
                                    {key: p.diff(a) for key, p in r.coeffs.items()}))
        if l_out is not None:
            l_out.append(r.insert_vector(bundle.frame_section(a)))
    return GenDer(bundle, r.degree, d_out, l_out, r)


def build_drTstar(r: VForm) -> GenDer:
    """Degree-1 derivation on the cotangent frame induced by an endomorphism:
    the dual of ``build_drT(r)``, so that

        D_X(a) = L_X(a o r) - L_{r(X)} a,   l = transpose of r, symbol r.
    """
    if r.degree != 1 or r.vals != r.chart.dim:
        raise PolyError("expected a degree-1 tangent-valued form")
    return dual(build_drT(r))


def build_from_connection(bundle: FramedBundle,
                          gamma: Sequence[Sequence[Sequence[Poly]]],
                          l_frame: Sequence[VForm],
                          r: VForm) -> GenDer:
    """Assemble a degree-k derivation from connection coefficients:

        D_(X1..Xk)(u) = sum_i (-1)^(i+1) l_(X1..^Xi..Xk)(grad_{Xi} u)
                        - grad_{r(X1..Xk)} u

    with grad_{d/dx_i} u_a = sum_b gamma[i][b][a] u_b.  With grad u_a the
    E-valued 1-form sum_i dx_i (x) grad_{d/dx_i} u_a, this is

        D(u_a) = l(grad u_a) - i_r grad u_a,

    l extended to E-valued forms as in ``GenDer.apply_l`` and i_r acting on
    each value slot.
    """
    chart, rank, k = bundle.chart, bundle.rank, r.degree
    if len(gamma) != chart.dim or any(
            len(m) != rank or any(len(row) != rank for row in m) for m in gamma):
        raise PolyError("gamma must list one rank x rank matrix per coordinate")
    # carries l and r; its own D is never read
    lr = GenDer(bundle, k, [bundle.zero_form(k)] * rank,
                list(l_frame) if k > 0 else None, r)
    d_out = []
    for a in range(rank):
        grad = VForm(chart, 1, rank, {((i,), b): gamma[i][b][a]
                                      for i in range(chart.dim) for b in range(rank)})
        out: dict = {}
        if lr.l_frame is not None:
            lr._l_into(out, grad, 1)
        # i_r grad u_a: the symbol term p dx_idx (x) d/dx_v meets dx_v in slot b
        for b in range(rank):
            for (idx, v), p in r.coeffs.items():
                _accumulate(out, (idx, b), gamma[v][b][a], p, -1)
        d_out.append(lr._finish(k, out))
    return GenDer(bundle, k, d_out, lr.l_frame, r)

