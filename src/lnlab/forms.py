"""Exterior calculus on a chart with exact polynomial coefficients.

Every alternating tensor in the package is one container, ``_Alternating``: a
sparse map from strictly increasing index tuples to nonzero polynomials.  It
owns key validation at the public constructors, ``+ - neg`` and scaling,
equality and hashing, signed coefficient lookup and rendering.  Subclasses
add only what differs:

* ``DiffForm`` and ``Multivector`` index the chart coordinates and render
  with ``dx`` and ``@x`` bases;
* ``VForm`` takes values in a rank-``vals`` frame, so each key also carries
  a value slot: ``(index tuple, v)``;
* ``algebroid.FrameBivector`` has degree 2 and indexes the frame of a bundle.

Brackets follow the conventions that make the classical identities hold
literally:

* the Frolicher-Nijenhuis bracket restricts to the Lie bracket on vector
  fields and satisfies ``[r, r] = 2 N_r`` for a degree-1 form ``r``;
* the Schouten bracket satisfies ``[X, Q] = L_X Q`` for a vector field ``X``;
* ``sharp(pi, a) = pi(a, .)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .matrix import identity, mat_vec
from .poly import Chart, Poly, PolyError

__all__ = [
    "DiffForm",
    "Multivector",
    "VForm",
    "wedge",
    "mv_wedge",
    "exterior_d",
    "interior_vector",
    "interior_vvf",
    "lie_derivative_vvf",
    "vf_bracket",
    "derivative",
    "frolicher_nijenhuis",
    "nijenhuis_torsion",
    "schouten",
    "sharp",
    "sharp_matrix",
    "bivector_from_sharp",
    "pairing",
    "sort_index",
]

Index = tuple[int, ...]


def sort_index(idx: Sequence[int]) -> tuple[Index, int] | None:
    """Sort an index tuple into strictly increasing order.

    Returns the sorted tuple and the permutation sign, or None when an index
    repeats (the antisymmetric component vanishes).
    """
    lst = list(idx)
    sign = 1
    # insertion sort; counts transpositions exactly
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return None
    return tuple(lst), sign


class _Alternating:
    """Sparse alternating tensor (see the module docstring).

    Index entries run below ``_span()``, the chart dimension unless a
    subclass says otherwise.  ``_shape()`` lists the constructor arguments
    before ``coeffs``; two tensors combine only when their shapes agree.
    """

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart: Chart, degree: int,
                 coeffs: Mapping[Index, Poly] | None = None) -> None:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.chart = chart
        self.degree = degree
        clean = {}
        for key, p in (coeffs or {}).items():
            key = self._check_key(key)
            if not p.is_zero:
                clean[key] = p
        self.coeffs = clean

    def _span(self) -> int:
        return self.chart.dim

    def _shape(self) -> tuple:
        return (self.chart, self.degree)

    def _check_key(self, idx: Sequence[int]):
        if len(idx) != self.degree:
            raise ValueError(f"index {idx} has wrong length for degree {self.degree}")
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"index {idx} must be strictly increasing")
        if any(not 0 <= i < self._span() for i in idx):
            raise ValueError(f"index {idx} out of range for {self.chart}")
        return tuple(idx)

    @classmethod
    def _trusted(cls, chart: Chart, degree: int, coeffs: Mapping):
        """Build from keys known to be valid: taken from existing objects or
        produced by ``sort_index``.  Only zero coefficients are dropped;
        nothing is checked.  Subclasses take their shape arguments here too."""
        self = object.__new__(cls)
        self.chart = chart
        self.degree = degree
        self.coeffs = {k: p for k, p in coeffs.items() if p.terms}
        return self

    def _like(self, coeffs: Mapping):
        return self._trusted(*self._shape(), coeffs)

    @classmethod
    def zero(cls, *shape):
        return cls(*shape)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, idx: Sequence[int]) -> Poly:
        """Coefficient on an arbitrary index tuple, with antisymmetry signs."""
        s = sort_index(idx)
        if s is None:
            return Poly.zero(self.chart)
        key, sign = s
        p = self.coeffs.get(key)
        if p is None:
            return Poly.zero(self.chart)
        return p if sign == 1 else -p

    def _binop(self, other, fn):
        if self._shape() != other._shape():
            raise PolyError(f"{type(self).__name__} shape mismatch")
        keys = set(self.coeffs) | set(other.coeffs)
        z = Poly.zero(self.chart)
        return self._like({k: fn(self.coeffs.get(k, z), other.coeffs.get(k, z))
                           for k in keys})

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return self._like({k: -p for k, p in self.coeffs.items()})

    def __mul__(self, f: Poly | int | Fraction):
        return self._like({k: p * f for k, p in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Alternating):
            return NotImplemented
        return (type(self) is type(other) and self._shape() == other._shape()
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._shape(),
                     frozenset(self.coeffs.items())))

    def _terms(self, term) -> str:
        """Rendering: ``term(key, coefficient)`` joined in key order."""
        if not self.coeffs:
            return "0"
        return " + ".join(term(k, self.coeffs[k]) for k in sorted(self.coeffs))

    def render(self, basis: str) -> str:
        names = self.chart.coords

        def term(idx: Index, p: Poly) -> str:
            sym = "^".join(basis.format(names[i]) for i in idx) or "1"
            return f"({p}) {sym}".strip()
        return self._terms(term)


class DiffForm(_Alternating):
    """Differential form of a fixed degree with polynomial coefficients."""

    @staticmethod
    def from_poly(p: Poly) -> "DiffForm":
        return DiffForm._trusted(p.chart, 0, {(): p})

    @staticmethod
    def basis(chart: Chart, idx: Sequence[int]) -> "DiffForm":
        s = sort_index(idx)
        if s is None:
            return DiffForm.zero(chart, len(idx))
        key, sign = s
        return DiffForm(chart, len(idx), {key: Poly.const(chart, sign)})

    def __str__(self) -> str:
        return self.render("d{}")


class Multivector(_Alternating):
    """Alternating multivector field; degree 2 houses bivectors."""

    def __str__(self) -> str:
        return self.render("@{}")


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Exterior product of two forms (or of two multivectors).
    Graded-commutative and associative."""
    if a.chart != b.chart:
        raise PolyError("chart mismatch in wedge")
    deg = a.degree + b.degree
    if deg > a.chart.dim:
        return a.zero(a.chart, deg)
    out: dict[Index, Poly] = {}
    for ia, pa in a.coeffs.items():
        for ib, pb in b.coeffs.items():
            m = sort_index(ia + ib)
            if m is None:
                continue
            key, sign = m
            term = pa * pb * sign
            prev = out.get(key)
            out[key] = term if prev is None else prev + term
    return a._trusted(a.chart, deg, out)


def mv_wedge(a: Multivector, b: Multivector) -> Multivector:
    return wedge(a, b)


def exterior_d(a: DiffForm) -> DiffForm:
    """Exterior derivative; satisfies d(d(a)) = 0 and Leibniz over wedge."""
    chart = a.chart
    deg = a.degree + 1
    if deg > chart.dim:
        return DiffForm.zero(chart, deg)
    out: dict[Index, Poly] = {}
    for idx, p in a.coeffs.items():
        for i in range(chart.dim):
            dp = p.diff(i)
            if dp.is_zero:
                continue
            m = sort_index((i,) + idx)
            if m is None:
                continue
            key, sign = m
            term = dp * sign
            prev = out.get(key)
            out[key] = term if prev is None else prev + term
    return DiffForm._trusted(chart, deg, out)


def interior_vector(comps: Sequence[Poly], a: DiffForm) -> DiffForm:
    """Interior product i_X a for a vector field given by its components;
    for a multivector, contraction with the 1-form of those components."""
    chart = a.chart
    if a.degree == 0:
        return a.zero(chart, 0)
    out: dict[Index, Poly] = {}
    for idx, p in a.coeffs.items():
        for pos, i in enumerate(idx):
            if comps[i].is_zero:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            term = p * comps[i] * ((-1) ** pos)
            prev = out.get(rest)
            out[rest] = term if prev is None else prev + term
    return a._trusted(chart, a.degree - 1, out)


class VForm(_Alternating):
    """Vector-valued form: a form with values in a rank-``vals`` frame.

    ``vals == chart.dim`` with the coordinate frame gives tangent-valued forms;
    other values house sections/forms valued in a framed bundle.  Degree 0 is a
    plain section (a vector field when tangent-valued).  Keys are pairs
    ``(index tuple, value slot)``.
    """

    __slots__ = ("vals",)

    def __init__(self, chart: Chart, degree: int, vals: int,
                 coeffs: Mapping[tuple[Index, int], Poly] | None = None) -> None:
        self.vals = vals
        super().__init__(chart, degree, coeffs)

    def _shape(self) -> tuple:
        return (self.chart, self.degree, self.vals)

    @classmethod
    def _trusted(cls, chart: Chart, degree: int, vals: int, coeffs: Mapping):
        self = super()._trusted(chart, degree, coeffs)
        self.vals = vals
        return self

    def _check_key(self, key: tuple[Index, int]) -> tuple[Index, int]:
        idx, v = key
        if not 0 <= v < self.vals:
            raise ValueError(f"value index {v} out of range ({self.vals})")
        return super()._check_key(idx), v

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_components(forms: Sequence[DiffForm], degree: int) -> "VForm":
        """Assemble from one scalar form per value index."""
        if any(f.degree != degree for f in forms):
            raise ValueError(f"component degrees must all be {degree}")
        chart = forms[0].chart
        coeffs: dict[tuple[Index, int], Poly] = {}
        for v, f in enumerate(forms):
            for idx, p in f.coeffs.items():
                coeffs[(idx, v)] = p
        return VForm._trusted(chart, degree, len(forms), coeffs)

    @staticmethod
    def section(chart: Chart, comps: Sequence[Poly]) -> "VForm":
        return VForm._trusted(chart, 0, len(comps),
                              {((), v): p for v, p in enumerate(comps)})

    @staticmethod
    def identity(chart: Chart) -> "VForm":
        """The identity endomorphism of the tangent frame as a degree-1 form."""
        one = Poly.const(chart, 1)
        return VForm._trusted(chart, 1, chart.dim,
                              {((i,), i): one for i in range(chart.dim)})

    # -- access ------------------------------------------------------------

    def coeff(self, idx: Sequence[int], v: int) -> Poly:
        """Coefficient of the v-th frame vector on an arbitrary index tuple."""
        return self.component(v).coeff(idx)

    def component(self, v: int) -> DiffForm:
        """Scalar form multiplying the v-th frame vector."""
        return DiffForm._trusted(self.chart, self.degree,
                                 {idx: p for (idx, vv), p in self.coeffs.items() if vv == v})

    def section_components(self) -> list[Poly]:
        """Component vector of a degree-0 VForm."""
        if self.degree != 0:
            raise ValueError("not a section")
        z = Poly.zero(self.chart)
        return [self.coeffs.get(((), v), z) for v in range(self.vals)]

    def value_at(self, idx: Sequence[int]) -> list[Poly]:
        """Evaluate on a tuple of coordinate frame directions."""
        return [self.coeff(idx, v) for v in range(self.vals)]

    def matrix(self) -> list[list[Poly]]:
        """Degree-1 form as a vals x dim matrix: M[v][i] = <frame_v part of K(d/dx_i)>."""
        if self.degree != 1:
            raise ValueError("matrix() requires degree 1")
        z = Poly.zero(self.chart)
        return [[self.coeffs.get(((i,), v), z) for i in range(self.chart.dim)]
                for v in range(self.vals)]

    def decomposables(self) -> Iterable[tuple[DiffForm, int]]:
        """Entries as (scalar form, value index) pairs."""
        for (idx, v), p in self.coeffs.items():
            yield DiffForm._trusted(self.chart, self.degree, {idx: p}), v

    def wedge_scalar(self, a: DiffForm) -> "VForm":
        """a ^ K, value slot untouched."""
        out: dict[tuple[Index, int], Poly] = {}
        for (idx, v), p in self.coeffs.items():
            w = wedge(a, DiffForm._trusted(self.chart, self.degree, {idx: p}))
            for i2, p2 in w.coeffs.items():
                key = (i2, v)
                out[key] = out.get(key, Poly.zero(self.chart)) + p2
        return VForm._trusted(self.chart, self.degree + a.degree, self.vals, out)

    def apply_endo(self, X: "VForm") -> "VForm":
        """Apply a degree-1 tangent-valued form to a vector field."""
        if self.degree != 1 or X.degree != 0:
            raise ValueError("apply_endo needs a degree-1 operator and a vector field")
        comps = X.section_components()
        out = [Poly.zero(self.chart) for _ in range(self.vals)]
        for (idx, v), p in self.coeffs.items():
            out[v] = out[v] + p * comps[idx[0]]
        return VForm.section(self.chart, out)

    def insert_vector(self, X: "VForm") -> "VForm":
        """Contract a vector field into the first form slot."""
        comps = X.section_components()
        parts = [interior_vector(comps, self.component(v)) for v in range(self.vals)]
        return VForm.from_components(parts, self.degree - 1)

    def contract_value(self, covec: Sequence[Poly]) -> DiffForm:
        """Pair the value slot with a covector, leaving a scalar form."""
        out = DiffForm.zero(self.chart, self.degree)
        for v in range(self.vals):
            if covec[v].is_zero:
                continue
            out = out + self.component(v) * covec[v]
        return out

    def render(self, frame: Sequence[str]) -> str:
        names = self.chart.coords

        def term(key: tuple[Index, int], p: Poly) -> str:
            idx, v = key
            sym = "^".join(f"d{names[i]}" for i in idx)
            return f"({p}) {sym} (x) {frame[v]}" if sym else f"({p}) {frame[v]}"
        return self._terms(term)

    def __repr__(self) -> str:
        return f"VForm(deg={self.degree}, vals={self.vals}, {len(self.coeffs)} terms)"


# -- tangent-valued calculus ------------------------------------------------


def _check_tangent(K: VForm) -> None:
    if K.vals != K.chart.dim:
        raise PolyError("operation requires a tangent-valued form")


def interior_vvf(K: VForm, a: DiffForm) -> DiffForm:
    """Algebraic interior product i_K a of a tangent-valued k-form.

    For decomposable K = w (x) X this is w ^ i_X a; a derivation of degree
    k - 1 over the wedge.  For k = 1 it is precomposition a o K on arguments.
    """
    _check_tangent(K)
    if K.chart != a.chart:
        raise PolyError("chart mismatch")
    deg = K.degree + a.degree - 1
    if a.degree == 0:
        return DiffForm.zero(K.chart, max(deg, 0))
    out = DiffForm.zero(K.chart, deg)
    basis = [Poly.zero(K.chart)] * K.chart.dim
    for (idx, v), p in K.coeffs.items():
        comps = list(basis)
        comps[v] = p
        inner = interior_vector(comps, a)
        out = out + wedge(DiffForm.basis(K.chart, idx), inner)
    return out


def lie_derivative_vvf(K: VForm, a: DiffForm) -> DiffForm:
    """Lie derivative along a tangent-valued k-form: L_K = [i_K, d]."""
    k = K.degree
    first = interior_vvf(K, exterior_d(a))
    if a.degree == 0:
        return first
    second = exterior_d(interior_vvf(K, a))
    return first + second if (k - 1) % 2 else first - second


def derivative(comps: Sequence[Poly], p: Poly) -> Poly:
    """X(p) = sum_i X^i d_i p for the vector field with components ``comps``."""
    acc = Poly.zero(p.chart)
    for i, c in enumerate(comps):
        if c.terms:
            acc = acc + c * p.diff(i)
    return acc


def vf_bracket(X: VForm, Y: VForm) -> VForm:
    """Lie bracket of vector fields."""
    _check_tangent(X)
    xs, ys = X.section_components(), Y.section_components()
    return VForm.section(X.chart, [derivative(xs, y) - derivative(ys, x)
                                   for x, y in zip(xs, ys)])


def frolicher_nijenhuis(K: VForm, L: VForm) -> VForm:
    """Frolicher-Nijenhuis bracket of tangent-valued forms.

    Computed by bilinear extension over decomposables c dx_I (x) d/dx_p with
    constant coordinate frame fields, so the Lie-bracket term of the
    decomposable expansion drops and only the derivative terms survive.
    """
    _check_tangent(K)
    _check_tangent(L)
    if K.chart != L.chart:
        raise PolyError("chart mismatch")
    chart = K.chart
    k, l = K.degree, L.degree
    deg = k + l
    sign_k = (-1) ** k
    units = identity(chart, chart.dim)
    acc: dict[tuple[Index, int], Poly] = {}

    def add(idx_form: DiffForm, v: int) -> None:
        for i2, p2 in idx_form.coeffs.items():
            key = (i2, v)
            acc[key] = acc.get(key, Poly.zero(chart)) + p2

    for (ia, va), pa in K.coeffs.items():
        phi = DiffForm._trusted(chart, k, {ia: pa})
        for (ib, vb), pb in L.coeffs.items():
            psi = DiffForm._trusted(chart, l, {ib: pb})
            # phi ^ (d_{va} psi) (x) d/dx_vb
            dpsi = DiffForm._trusted(chart, l, {ib: pb.diff(va)})
            add(wedge(phi, dpsi), vb)
            # - (d_{vb} phi) ^ psi (x) d/dx_va
            dphi = DiffForm._trusted(chart, k, {ia: pa.diff(vb)})
            add(-wedge(dphi, psi), va)
            # (-1)^k ( d phi ^ i_{va} psi (x) d/dx_vb + i_{vb} phi ^ d psi (x) d/dx_va )
            t1 = wedge(exterior_d(phi), interior_vector(units[va], psi))
            add(t1 * sign_k, vb)
            t2 = wedge(interior_vector(units[vb], phi), exterior_d(psi))
            add(t2 * sign_k, va)
    return VForm._trusted(chart, deg, chart.dim, acc)


def nijenhuis_torsion(r: VForm) -> VForm:
    """N_r(X, Y) = [rX, rY] - r([rX, Y] + [X, rY] - r([X, Y])) on frame pairs."""
    _check_tangent(r)
    if r.degree != 1:
        raise ValueError("torsion is defined for degree-1 forms")
    chart = r.chart
    n = chart.dim
    coeffs: dict[tuple[Index, int], Poly] = {}
    frame = [VForm.section(chart, row) for row in identity(chart, n)]
    for i in range(n):
        for j in range(i + 1, n):
            ri, rj = r.apply_endo(frame[i]), r.apply_endo(frame[j])
            # [d/dx_i, d/dx_j] = 0, so the r^2 term drops
            val = (vf_bracket(ri, rj)
                   - r.apply_endo(vf_bracket(ri, frame[j]))
                   - r.apply_endo(vf_bracket(frame[i], rj)))
            for v, p in enumerate(val.section_components()):
                coeffs[((i, j), v)] = p
    return VForm._trusted(chart, 2, n, coeffs)


# -- multivector calculus ----------------------------------------------------


def schouten(P: Multivector, Q: Multivector) -> Multivector:
    """Schouten bracket, computed on decomposables:

        [X_1^..^X_p, Y_1^..^Y_q] = sum_{s,t} (-1)^{s+t} [X_s, Y_t]
                                   ^ X_1..^X_s..X_p ^ Y_1..^Y_t..Y_q

    (hats mark omissions) together with [P, f] = i_{df} P and
    [f, Q] = (-1)^q i_{df} Q.  Normalized so [X, Q] = L_X Q and
    [X, Y] is the Lie bracket.
    """
    if P.chart != Q.chart:
        raise PolyError("chart mismatch")
    chart = P.chart
    p, q = P.degree, Q.degree
    deg = p + q - 1
    if deg < 0 or deg > chart.dim:
        return Multivector.zero(chart, max(deg, 0))
    if p == 0 or q == 0:
        f, R = (P, Q) if p == 0 else (Q, P)
        out = interior_vector([f.coeff(()).diff(i) for i in range(chart.dim)], R)
        return -out if p == 0 and q % 2 else out
    out: dict[Index, Poly] = {}

    def add(idx: Sequence[int], coeff: Poly) -> None:
        s = sort_index(idx)
        if s is None or coeff.is_zero:
            return
        key, sign = s
        term = coeff * sign
        prev = out.get(key)
        out[key] = term if prev is None else prev + term

    # monomial c xi_I wedges as (c d/dx_{I_0}) ^ d/dx_{I_1} ^ ...; the
    # coordinate-frame factors commute, so only pairs touching slot 0 act
    for I, c in P.coeffs.items():
        for J, e in Q.coeffs.items():
            for s in range(p):
                for t in range(q):
                    if s > 0 and t > 0:
                        continue
                    rest = I[:s] + I[s + 1:] + J[:t] + J[t + 1:]
                    sgn = (-1) ** (s + t)
                    if s == 0 and t == 0:
                        # [c d/di, e d/dj] = c (d_i e) d/dj - e (d_j c) d/di
                        de = c * e.diff(I[0])
                        dc = e * c.diff(J[0])
                        add((J[0],) + rest, de * sgn)
                        add((I[0],) + rest, -dc * sgn)
                    elif s == 0:
                        # [c d/di, d/dj] = -(d_j c) d/di ; factor e remains
                        add((I[0],) + rest, -c.diff(J[t]) * e * sgn)
                    else:
                        # [d/di, e d/dj] = (d_i e) d/dj ; factor c remains
                        add((J[0],) + rest, e.diff(I[s]) * c * sgn)
    return Multivector._trusted(chart, deg, out)


def sharp(P: Multivector, a: DiffForm) -> VForm:
    """Contraction of a bivector with a 1-form: sharp(P, a) = P(a, .)."""
    if P.degree != 2 or a.degree != 1:
        raise ValueError("sharp needs a bivector and a 1-form")
    if P.chart != a.chart:
        raise PolyError("chart mismatch")
    alpha = [a.coeff((i,)) for i in range(P.chart.dim)]
    return VForm.section(P.chart, mat_vec(sharp_matrix(P), alpha))


def sharp_matrix(P: Multivector) -> list[list[Poly]]:
    """Matrix S with sharp(P, a)^j = sum_i S[j][i] a_i."""
    chart = P.chart
    n = chart.dim
    return [[P.coeff((i, j)) for i in range(n)] for j in range(n)]


def pairing(a: DiffForm, X: VForm) -> Poly:
    """<a, X> for a 1-form and a vector field."""
    if a.degree != 1 or X.degree != 0:
        raise ValueError("pairing needs a 1-form and a vector field")
    comps = X.section_components()
    acc = Poly.zero(a.chart)
    for i in range(a.chart.dim):
        acc = acc + a.coeff((i,)) * comps[i]
    return acc


def bivector_from_sharp(chart: Chart, S: Sequence[Sequence[Poly]]) -> Multivector:
    """Rebuild the bivector with P(dx_i, dx_j) = S[j][i] (requires skewness)."""
    coeffs: dict[Index, Poly] = {}
    n = chart.dim
    for i in range(n):
        for j in range(i + 1, n):
            coeffs[(i, j)] = S[j][i]
    return Multivector._trusted(chart, 2, coeffs)
