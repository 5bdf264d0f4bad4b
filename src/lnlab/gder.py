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

``bracket`` chooses its route by the degrees.  When both are at most 1 it
reads each operand's frame values as matrices, each entry differentiated
once: Q_a = D(u_a) (n x R, coefficients of dx_i (x) u_b; an R-vector for
degree 0), L = l (R x R) and K = r (n x n; a vector field for degree 0).
Every product is then one of two entries or their partials, in

    alpha ^ Q_b,  (-1)^j d alpha ^ L_b,  [B, l_A],  Lie_{r_B} r_A,
    Lie_K alpha = sum_v K^v ^ d_v alpha + (-1)^k dK^v ^ i_v alpha,

alpha a coefficient form of degree j <= 1 of a frame value, so an index
merge is one comparison and i_v alpha is alpha_v.  It goes straight into
the sum of its result coefficient, made at the first product with no zero
factor.  Above degree 1 ``bracket`` extends one derivation to each frame
value of the other (``GenDer._extend_into``), the only route there.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .poly import Chart, Poly, PolyError, _Sum
from .forms import (DiffForm, VForm, _accumulate, _antisymmetrize, _by_slot, _contract_into,
                    _d_into, _lie_into, _partials, _slot_d, _sums, _symbol_slots, _wedge_into)

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

        with L_r the Lie derivative along the symbol (``forms._lie_into``).
        Each term acts once per value slot.  The partials of a's coefficients
        give the d_v a of L_r and the da of the l-term, r's slot forms are
        formed once per call, and every term goes into one map per result.
        """
        out: dict = {}
        self._extend_into(out, eta, 1, _symbol_slots(_partials(self.r)))
        return self._finish(eta.degree + self.degree, out)

    def _l_into(self, out: dict, eta: VForm, sign: int) -> None:
        """Add ``sign * apply_l(eta)`` into the sums at ``out``."""
        for a, alpha in self._slots(eta):
            _wedge_into(out, alpha, self.l_frame[a], sign)

    def _extend_into(self, out: dict, eta: VForm, sign: int, symbol: tuple) -> None:
        """Add ``sign * extend(eta)`` into the sums at ``out``, given
        ``_symbol_slots`` of the partials of ``self.r``."""
        j, k, chart = eta.degree, self.degree, self.bundle.chart
        slots = self._slots(eta)
        if j + k > chart.dim:  # every term is a (j + k)-form
            return
        for a, alpha in slots:
            _wedge_into(out, alpha, self.d_frame[a], sign)
        entries = _partials(eta)
        if self.l_frame is not None:
            for a, dalpha in _slot_d(entries).items():
                _wedge_into(out, DiffForm._trusted(chart, j + 1, dalpha),
                            self.l_frame[a], sign * (-1) ** j)
        _lie_into(out, k, symbol, entries, -sign * (-1) ** (j * k))

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

    with [D, l'] the graded commutator of the extended operators.  All three
    are H(D1, D2) - (-1)^(k1 k2) H(D2, D1), put together by
    ``forms._antisymmetrize``: H(A, B) is B o A and [B, l_A] on each frame
    section, and -(-1)^(k1 k2) L_{r_B} r_A on the symbol, which makes
    r = L_{r1} r2 - (-1)^(k1 k2) L_{r2} r1 slot by slot.  So [D, D] is
    2 H(D, D) for D of odd degree and 0 for D of even degree.

    The route follows the degrees, with no option.  When both are at most
    1, ``_frame_half`` forms H off the frame matrices Q_a = D(u_a),
    L_a = l(u_a) and K = r of each operand (p = deg A, q = deg B, alpha_ab
    the coefficient form of u_b in Q^A_a):

        B(A(u_a)) = sum_b alpha_ab ^ Q^B_b + (-1)^p d alpha_ab ^ L^B_b
                    - (-1)^(pq) (Lie_{K^B} alpha_ab) u_b,
        [B, l_A](u_a) = B(L^A_a) - l_A(Q^B_a),
        Lie_K alpha = sum_v K^v ^ d_v alpha + (-1)^q dK^v ^ i_v alpha,

    each product straight into the sum of its coefficient.  Otherwise
    ``_extend_half`` extends B to each frame value of A
    (``GenDer._extend_into``); it is the only route above degree 1.
    """
    frame = D1.degree <= 1 and D2.degree <= 1
    return _bracket(D1, D2, *((_frame_part, _frame_half) if frame
                              else (_extend_part, _extend_half)))


def _bracket(D1: GenDer, D2: GenDer, part, half) -> GenDer:
    """[D1, D2] from ``half(out, pA, pB, s)``, which adds s H(A, B) into the
    sums ``out`` = (D, l, symbol) given each operand as ``part`` of it."""
    if D1.bundle != D2.bundle:
        raise PolyError("derivations act on different bundles")
    bundle, k = D1.bundle, D1.degree + D2.degree
    sums = partial(defaultdict, partial(_Sum, bundle.chart))  # each sum made on first use
    out = [sums() for _ in bundle.frame], [sums() for _ in bundle.frame], sums()
    _antisymmetrize(D1, D2, D1.degree * D2.degree, partial(half, out), part)
    d_val, l_val, r_val = out
    return GenDer(bundle, k, [D1._finish(k, c) for c in d_val],
                  [D1._finish(k - 1, c) for c in l_val] if k else None,
                  VForm._trusted(bundle.chart, k, bundle.chart.dim, _sums(r_val)))


def _extend_part(D: GenDer) -> tuple:
    """D, its symbol's partials and slot forms: what ``_extend_half`` reads."""
    entries = _partials(D.r)
    return D, entries, _symbol_slots(entries)


def _extend_half(out: tuple, pA: tuple, pB: tuple, s: int) -> None:
    """Add s H(A, B) (see ``bracket``) into ``out``, for operands of any
    degree given by ``_extend_part``: B extended to each frame value of A,
    l_A applied to those of B, and L_{r_B} r_A slot by slot."""
    d_val, l_val, r_val = out  # l_val holds the graded commutators [B, l_A]
    (A, entries, _), (B, _, symbol) = pA, pB
    for a in range(A.bundle.rank):
        B._extend_into(d_val[a], A.d_frame[a], s, symbol)
        if A.l_frame is not None:
            B._extend_into(l_val[a], A.l_frame[a], s, symbol)
            A._l_into(l_val[a], B.d_frame[a], -s * (-1) ** (B.degree * (A.degree - 1)))
    _lie_into(r_val, B.degree, symbol, entries, -s * (-1) ** (A.degree * B.degree))


def _frame_part(D: GenDer) -> tuple:
    """What ``_frame_half`` reads of a derivation of degree at most 1:
    (degree, Q, L, K, K by slot) with Q[a] the terms of D(u_a), L[a] those
    of l(u_a) (None for degree 0) and K those of the symbol, each term
    (index tuple, value slot, coefficient, {coordinate: nonzero partial}),
    so every coefficient is differentiated once per bracket."""
    def terms(v: VForm) -> list:
        return [(idx, b, p, {m: q for m, q in enumerate(p.grad()) if q})
                for (idx, b), p in v.coeffs.items()]
    K, slots = terms(D.r), {}
    for idx, v, p, _ in K:
        slots.setdefault(v, []).append((idx, p))
    return (D.degree, [terms(v) for v in D.d_frame],
            None if D.l_frame is None else [terms(v) for v in D.l_frame], K, slots)


def _join(I: tuple, J: tuple):
    """dx_I ^ dx_J for index tuples of length at most 1, as (index tuple,
    sign); None when they repeat."""
    if I and J:
        i, j = I[0], J[0]
        return (I + J, 1) if i < j else (J + I, -1) if j < i else None
    return I or J, 1


def _d_slots(terms: list) -> dict:
    """d of the form in each value slot, as {slot: [(index tuple,
    coefficient)]} over its nonzero coefficients, from the ``_frame_part``
    terms of a form of degree at most 1.  A coefficient d_m a_i - d_i a_m of
    d of a 1-form is one difference of partials."""
    out: dict = {}
    for idx, b, _, g in terms:
        row = out.setdefault(b, {})
        for m, q in g.items():
            mk = _join((m,), idx)
            if mk:
                key, q = mk[0], q if mk[1] > 0 else -q
                prev = row.get(key)
                row[key] = q if prev is None else prev + q
    return {b: [(key, q) for key, q in row.items() if q] for b, row in out.items()}


def _frame_half(out: tuple, pA: tuple, pB: tuple, s: int) -> None:
    """Add s H(A, B) into the sums ``out`` = (d, l, r) by frame section, for
    A and B of degree p, q <= 1 given by ``_frame_part``, by the formulas in
    ``bracket``: B o l_A is the first with p = 0, and the symbol gets
    -(-1)^(pq) Lie_{r_B} r_A slot by slot.  Every form here has degree 0 or
    1, so an index merge is a comparison (``_join``), and i_v a is a_v for a
    1-form a and 0 for a function.  The terms come in the generic half's
    order (per frame section the D-part, then the l-part; the symbol last),
    and within a term the products run over A's coefficients in storage
    order."""
    d_out, l_out, r_out = out
    (p, QA, LA, KA, _), (q, QB, LB, KB, KBs) = pA, pB
    dKB = _d_slots(KB) if p else {}  # only 1-forms meet i_v

    def lie(acc, terms: list, t: int) -> None:  # t Lie_{r_B} of each slot form
        for I, b, _, g in terms:
            for v, x in g.items():
                for J, y in KBs.get(v, ()):
                    m = _join(J, I)
                    if m:
                        acc[m[0], b].add(x, y, t * m[1])
        t *= (-1) ** q
        for I, b, x, _ in terms:
            for J, y in dKB.get(I[0], ()) if I else ():
                acc[J, b].add(x, y, t)

    def extend(acc, terms: list, j: int) -> None:  # s B(eta), eta a j-form
        for I, b, x, _ in terms:
            for J, c, y, _ in QB[b]:
                m = _join(I, J)
                if m:
                    acc[m[0], c].add(x, y, s * m[1])
        if LB is not None:
            t = s * (-1) ** j
            for b, dx in _d_slots(terms).items():
                for J, x in dx:
                    for _, c, y, _ in LB[b]:
                        acc[J, c].add(x, y, t)
        lie(acc, terms, -s * (-1) ** (j * q))

    for a, terms in enumerate(QA):
        extend(d_out[a], terms, p)
        if LA is not None:
            extend(l_out[a], LA[a], 0)
            for J, b, x, _ in QB[a]:
                for _, c, y, _ in LA[b]:
                    l_out[a][J, c].add(x, y, -s)
    lie(r_out, KA, -s * (-1) ** (p * q))


def dual(D: GenDer) -> GenDer:
    """Dual derivation on the dual frame, same degree and symbol:

        <D*(xi), u> = d<xi, l(u)> - <xi, D(u)>    on frame pairs,
        <l*(xi), u> = <xi, l(u)>.

    Both go straight into one coefficient map per dual frame value, so the
    D-term is one sum per coefficient and the l-term is read off l as it is.
    """
    bundle = D.bundle
    chart, rank, k = bundle.chart, bundle.rank, D.degree
    d_maps: list[dict] = [{} for _ in range(rank)]
    l_maps: list[dict] = [{} for _ in range(rank)]
    for a in range(rank):
        for (idx, b), p in D.d_frame[a].coeffs.items():
            _accumulate(d_maps[b], (idx, a), p, None, -1)
        if D.l_frame is not None:
            for b, lb in D.l_frame[a].slot_components().items():
                _d_into(d_maps[b], lb, a)
                for idx, p in lb.coeffs.items():
                    l_maps[b][(idx, a)] = p
    d_out = [VForm._trusted(chart, k, rank, _sums(c)) for c in d_maps]
    l_out = [VForm._trusted(chart, k - 1, rank, c) for c in l_maps] if k else None
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
    bundle, grads = tangent_bundle(chart), {key: p.grad() for key, p in r.coeffs.items()}
    d_out = [VForm._trusted(chart, r.degree, chart.dim, {key: g[a] for key, g in grads.items()})
             for a in range(chart.dim)]
    l_out = ([r.insert_vector(bundle.frame_section(a)) for a in range(chart.dim)]
             if r.degree > 0 else None)
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
    d_out, r_slots = [], _by_slot(r.coeffs.items())
    for a in range(rank):
        grad = VForm(chart, 1, rank, {((i,), b): gamma[i][b][a]
                                      for i in range(chart.dim) for b in range(rank)})
        out: dict = {}
        if lr.l_frame is not None:
            lr._l_into(out, grad, 1)
        _contract_into(out, r_slots, grad.coeffs.items(), -1)
        d_out.append(lr._finish(k, out))
    return GenDer(bundle, k, d_out, lr.l_frame, r)

