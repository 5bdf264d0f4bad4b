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

L_K and i_K along a tangent-valued K have one kernel each: ``_lie_into``, ``_contract_into``.

Every graded bracket is H(P, Q) - (-1)^t H(Q, P) for a half H of its own,
and ``_antisymmetrize`` is the one place that puts the two halves together
(and takes H(P, P) once for [P, P]): the Schouten and Frolicher-Nijenhuis
brackets here, and ``gder.bracket`` of generalized derivations.  Brackets
follow the conventions that make the classical identities hold literally:

* the Frolicher-Nijenhuis bracket restricts to the Lie bracket on vector
  fields and satisfies ``[r, r] = 2 N_r`` for a degree-1 form ``r``;
* the Schouten bracket satisfies ``[X, Q] = L_X Q`` for a vector field ``X``,
  and on a function ``[P, f] = (-1)^(p-1) i_{df} P`` and ``[f, Q] = -i_{df} Q``;
* ``sharp(pi, a) = pi(a, .)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .matrix import mat_vec
from .poly import Chart, Poly, PolyError, _Sum

__all__ = [
    "DiffForm",
    "Multivector",
    "VForm",
    "wedge",
    "exterior_d",
    "interior_vvf",
    "lie_derivative_vvf",
    "vf_bracket",
    "frolicher_nijenhuis",
    "nijenhuis_torsion",
    "schouten",
    "sharp",
    "sharp_matrix",
    "bivector_from_sharp",
    "sort_index",
]

Index = tuple[int, ...]


def sort_index(idx: Sequence[int]) -> tuple[Index, int] | None:
    """Sort an index tuple into strictly increasing order.

    Returns the sorted tuple and the permutation sign, or None when an index
    repeats (the antisymmetric component vanishes).  Up to three indices the
    answer is direct comparison: the sign is the parity of the inversions.
    """
    n = len(idx)
    if n < 2:
        return tuple(idx), 1
    if n == 2:
        a, b = idx
        return ((a, b), 1) if a < b else ((b, a), -1) if b < a else None
    if n == 3:
        a, b, c = idx
        if a == b or a == c or b == c:
            return None
        return tuple(sorted(idx)), -1 if ((a > b) + (a > c) + (b > c)) % 2 else 1
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


def _accumulate(out: dict, key, x: Poly, y: Poly | None = None, sign: int = 1) -> None:
    """Add ``sign * x * y`` (``sign * x`` without ``y``) into the sum at
    ``out[key]``; ``_sums`` finishes the map."""
    acc = out.get(key)
    if acc is None:
        acc = out[key] = _Sum(x.chart)
    acc.add(x, y, sign)


def _sums(out: dict) -> dict:
    """The coefficient map of finished sums that ``_accumulate`` built."""
    return {key: acc.poly() for key, acc in out.items()}


def _partials(T, slots=None) -> list:
    """(key, coefficient, its partial derivatives) for each term of T; for a
    vector-valued T, no partials for terms outside the value ``slots`` if given."""
    return [(key, p, [p.diff(i) for i in range(T.chart.dim)]
             if slots is None or key[1] in slots else []) for key, p in T.coeffs.items()]


def _slot_d(entries: list) -> dict[int, dict]:
    """d(K^v), as a map from index tuple to coefficient, for each value slot
    v of a vector-valued form K, from its ``_partials``."""
    out: dict = {}
    for (idx, v), _, dp in entries:
        for i, q in enumerate(dp):
            m = sort_index((i,) + idx) if q else None
            if m is not None:
                _accumulate(out.setdefault(v, {}), m[0], q, None, m[1])
    return {v: _sums(c) for v, c in out.items()}


def _by_slot(items) -> dict[int, dict]:
    """K^v, as a map from index tuple to coefficient, for each value slot v of
    a vector-valued form K given by its ((index tuple, v), coefficient) pairs."""
    out: dict = {}
    for (idx, v), q in items:
        out.setdefault(v, {})[idx] = q
    return out


def _symbol_slots(entries: list) -> tuple[dict, dict]:
    """(``_by_slot``, ``_slot_d``) of a tangent-valued form K from its ``_partials``:
    the part of ``_lie_into`` that does not depend on the form L_K acts on."""
    return _by_slot((key, q) for key, q, _ in entries), _slot_d(entries)


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
        self.coeffs = {k: p for k, p in coeffs.items() if p}
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
    """Exterior product of two forms (or of two multivectors), as
    ``_wedge_into`` with b the one-slot form; the result has a's type.
    Graded-commutative and associative."""
    if a.chart != b.chart:
        raise PolyError("chart mismatch in wedge")
    out: dict = {}
    _wedge_into(out, a, VForm.from_components([b], b.degree))
    return a._trusted(a.chart, a.degree + b.degree,
                      {idx: p for (idx, _), p in _sums(out).items()})


def exterior_d(a: DiffForm) -> DiffForm:
    """Exterior derivative; satisfies d(d(a)) = 0 and Leibniz over wedge."""
    chart = a.chart
    deg = a.degree + 1
    if deg > chart.dim:
        return DiffForm.zero(chart, deg)
    out: dict[Index, Poly] = {}
    _d_into(out, a)
    return DiffForm._trusted(chart, deg, _sums(out))


def _d_into(out: dict, a: DiffForm, slot=None) -> None:
    """Add ``exterior_d(a)`` into the sums at ``out``, keyed by index tuple,
    or by (index tuple, ``slot``) like VForm when a slot is given."""
    for idx, p in a.coeffs.items():
        for i in range(a.chart.dim):
            m = sort_index((i,) + idx)
            dp = p.diff(i) if m else None
            if dp:
                _accumulate(out, m[0] if slot is None else (m[0], slot), dp, None, m[1])


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

    # -- access ------------------------------------------------------------

    # keys carry a value slot; read ``coeffs.get((idx, v))`` instead
    coeff = None

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

    def matrix(self) -> list[list[Poly]]:
        """Degree-1 form as a vals x dim matrix: M[v][i] = <frame_v part of K(d/dx_i)>."""
        if self.degree != 1:
            raise ValueError("matrix() requires degree 1")
        z = Poly.zero(self.chart)
        return [[self.coeffs.get(((i,), v), z) for i in range(self.chart.dim)]
                for v in range(self.vals)]

    def slot_components(self) -> dict[int, DiffForm]:
        """The scalar form multiplying each value slot, for nonzero slots."""
        return {v: DiffForm._trusted(self.chart, self.degree, c)
                for v, c in _by_slot(self.coeffs.items()).items()}

    def insert_vector(self, X: "VForm") -> "VForm":
        """Contract a vector field into the first form slot, slot by slot:
        i_X (p dx_idx (x) e_v) = (i_X p dx_idx) (x) e_v."""
        if self.degree == 0:
            raise ValueError("cannot contract a vector field into a degree-0 form")
        if (X.chart, X.degree, X.vals) != (self.chart, 0, self.chart.dim):
            raise PolyError("insert_vector needs a vector field on the form's chart")
        slots = {i: {(): c} for i, c in enumerate(X.section_components()) if c}
        out: dict = {}
        _contract_into(out, slots, self.coeffs.items(), 1)
        return VForm._trusted(self.chart, self.degree - 1, self.vals, _sums(out))

    def render(self, frame: Sequence[str]) -> str:
        names = self.chart.coords

        def term(key: tuple[Index, int], p: Poly) -> str:
            idx, v = key
            sym = "^".join(f"d{names[i]}" for i in idx)
            return f"({p}) {sym} (x) {frame[v]}" if sym else f"({p}) {frame[v]}"
        return self._terms(term)

    def __str__(self) -> str:
        """In the coordinate frame ``@x`` when tangent-valued, else in the
        frame ``e1 .. e{vals}``."""
        if self.vals == self.chart.dim:
            return self.render([f"@{c}" for c in self.chart.coords])
        return self.render([f"e{v + 1}" for v in range(self.vals)])

    def __repr__(self) -> str:
        return f"VForm(deg={self.degree}, vals={self.vals}, {len(self.coeffs)} terms)"


def _wedge_into(out: dict, a: DiffForm, K: VForm, sign: int = 1) -> None:
    """Add ``sign * (a ^ K)`` into the sums at ``out``, keyed like VForm."""
    if a.degree + K.degree <= K.chart.dim:
        for ia, pa in a.coeffs.items():
            for (idx, v), p in K.coeffs.items():
                m = sort_index(ia + idx)
                if m is not None:
                    _accumulate(out, (m[0], v), pa, p, m[1] * sign)


# -- tangent-valued calculus ------------------------------------------------


def _check_tangent(K: VForm) -> None:
    if K.vals != K.chart.dim:
        raise PolyError("operation requires a tangent-valued form")


def _contract_into(out: dict, K: dict[int, dict], entries, sign: int) -> None:
    """Add ``sign * sum_v K^v ^ i_v a`` into the sums at ``out``, slot by value
    slot of a given by ((index tuple, slot), coefficient) pairs, K^v as in
    ``_by_slot``: i_K a for a tangent-valued K, i_X a for a vector field K = X.
    The contraction i_v with d/dx_v sends dx_idx to (-1)^pos dx_rest, v = idx[pos]."""
    for (idx, a), p in entries:
        for pos, v in enumerate(idx):
            Kv = K.get(v)
            if Kv:
                rest, s = idx[:pos] + idx[pos + 1:], -sign if pos % 2 else sign
                for kidx, q in Kv.items():
                    m = sort_index(kidx + rest)
                    if m is not None:
                        _accumulate(out, (m[0], a), p, q, s * m[1])


def _lie_into(out: dict, k: int, symbol: tuple[dict, dict], entries: list, sign: int) -> None:
    """Add ``sign * L_K a`` into the sums at ``out``, slot by value slot of a
    given by its ``_partials``, for a tangent-valued k-form
    K = sum_v K^v (x) d/dx_v given by its ``_symbol_slots``:

        L_K a = sum_v K^v ^ d_v a + (-1)^k dK^v ^ i_v a

    (Kolar, Michor & Slovak, Natural Operations in Differential Geometry,
    1993, sec. 8), d_v a the coefficientwise partial and i_v the contraction
    with d/dx_v.  It is [i_K, d] a = i_K da + (-1)^k d(i_K a) with
    i_K a = sum_v K^v ^ i_v a expanded by Leibniz, as i_v d + d i_v = d_v on
    constant frame fields.  No product has degree above deg K + deg a - 1."""
    slots, dK = symbol
    for (idx, a), _, dp in entries:
        for v, Kv in slots.items():
            if dp[v]:
                for kidx, q in Kv.items():
                    m = sort_index(kidx + idx)
                    if m is not None:
                        _accumulate(out, (m[0], a), dp[v], q, sign * m[1])
    _contract_into(out, dK, ((key, p) for key, p, _ in entries), sign * (-1) ** k)


def _on_scalar(K: VForm, a: DiffForm, degree: int, kernel) -> DiffForm:
    """What ``kernel(out, A)`` adds for a as the one-slot form A; K is tangent-valued."""
    _check_tangent(K)
    if K.chart != a.chart:
        raise PolyError("chart mismatch")
    out: dict = {}
    if degree <= a.chart.dim:
        kernel(out, VForm.from_components([a], a.degree))
    return VForm._trusted(a.chart, degree, 1, _sums(out)).component(0)


def interior_vvf(K: VForm, a: DiffForm) -> DiffForm:
    """Algebraic interior product i_K a of a tangent-valued k-form (``_contract_into``).

    For decomposable K = w (x) X this is w ^ i_X a; a derivation of degree
    k - 1 over the wedge.  For k = 1 it is precomposition a o K on arguments.
    """
    return _on_scalar(K, a, max(K.degree + a.degree - 1, 0), lambda out, A: _contract_into(
        out, _by_slot(K.coeffs.items()), A.coeffs.items(), 1))


def lie_derivative_vvf(K: VForm, a: DiffForm) -> DiffForm:
    """Lie derivative L_K a = [i_K, d] a along a tangent-valued form (``_lie_into``)."""
    used = {v for idx in a.coeffs for v in idx}  # dK^v ^ i_v a = 0 for other v
    return _on_scalar(K, a, K.degree + a.degree, lambda out, A: _lie_into(
        out, K.degree, _symbol_slots(_partials(K, used)), _partials(A), 1))


def _derive_into(out: dict, key, comps: Sequence[Poly], p: Poly, sign: int = 1) -> None:
    """Add ``sign * X(p)``, X(p) = sum_i X^i d_i p for the vector field X with
    components ``comps``, into the sum at ``out[key]``."""
    for i, c in enumerate(comps):
        if c:
            _accumulate(out, key, c, p.diff(i), sign)


def vf_bracket(X: VForm, Y: VForm) -> VForm:
    """Lie bracket of vector fields."""
    _check_tangent(X)
    xs, ys = X.section_components(), Y.section_components()
    out: dict = {}
    for v, (x, y) in enumerate(zip(xs, ys)):
        _derive_into(out, ((), v), xs, y)
        _derive_into(out, ((), v), ys, x, -1)
    return VForm._trusted(X.chart, 0, len(xs), _sums(out))


def _antisymmetrize(P, Q, twist: int, half,
                    part=lambda T: (T.degree, _partials(T))) -> None:
    """Add H(P, Q) - (-1)^twist H(Q, P), where ``half(A, B, s)`` adds
    ``s * H(A, B)`` given each operand as ``part`` of it, formed once per
    operand: by default (degree, [(key, coefficient, its partial
    derivatives)]).  For ``Q is P``, H(P, P) once, times 1 - (-1)^twist."""
    if Q is not P:
        pP, pQ = part(P), part(Q)
        half(pP, pQ, 1)
        half(pQ, pP, -1 if twist % 2 == 0 else 1)
    elif twist % 2:
        pP = part(P)
        half(pP, pP, 2)


def frolicher_nijenhuis(K: VForm, L: VForm) -> VForm:
    """Frolicher-Nijenhuis bracket of tangent-valued forms, with constant
    coordinate frame fields (so the Lie-bracket term of the decomposable
    expansion drops), as [K, L] = H(K, L) - (-1)^(kl) H(L, K) with

        H(K, L) = sum phi ^ d_va psi (x) d/dx_vb + (-1)^k d phi ^ i_va psi (x) d/dx_vb

    over phi = pa dx_ia (x) d/dx_va in K and psi = pb dx_ib (x) d/dx_vb in L:
    L_K applied to each value slot of L (see ``_lie_into``).
    The expansion's other terms, -d_vb phi ^ psi (x) d/dx_va and
    (-1)^k i_vb phi ^ d psi (x) d/dx_va, are -(-1)^(kl) times H(L, K)'s:
    dx_ib ^ dx_ia = (-1)^(kl) dx_ia ^ dx_ib, and moving the (k-1)-form
    i_vb phi past the (l+1)-form d psi costs (-1)^((k-1)(l+1)), which is
    (-1)^(kl) times (-1)^(k+l+1).  [K, K] is (1 - (-1)^k) H(K, K)."""
    _check_tangent(K)
    _check_tangent(L)
    if K.chart != L.chart:
        raise PolyError("chart mismatch")
    acc: dict = {}

    def half(pK: tuple, pL: tuple, sign: int) -> None:  # no dK^v ^ i_v on a degree-0 L
        entries = pK[1] if pL[0] else [(key, q, []) for key, q, _ in pK[1]]
        _lie_into(acc, pK[0], _symbol_slots(entries), pL[1], sign)

    _antisymmetrize(K, L, K.degree * L.degree, half)
    return VForm._trusted(K.chart, K.degree + L.degree, K.chart.dim, _sums(acc))


def nijenhuis_torsion(r: VForm) -> VForm:
    """N_r(X, Y) = [rX, rY] - r([rX, Y] + [X, rY] - r([X, Y])) on frame pairs:
    on d/dx_i, d/dx_j the r^2 term drops, rX is column i of r's matrix and
    [rX, Y] + [X, rY] = d_i rY - d_j rX."""
    _check_tangent(r)
    if r.degree != 1:
        raise ValueError("torsion is defined for degree-1 forms")
    n, M, out = r.chart.dim, r.matrix(), {}
    cols = [[row[i] for row in M] for i in range(n)]
    for i, ri in enumerate(cols):
        for j, rj in enumerate(cols[i + 1:], i + 1):
            w = [rj[u].diff(i) - ri[u].diff(j) for u in range(n)]
            for v in range(n):
                key = ((i, j), v)
                _derive_into(out, key, ri, rj[v])
                _derive_into(out, key, rj, ri[v], -1)
                for c, wu in zip(M[v], w):
                    if c and wu:
                        _accumulate(out, key, c, wu, -1)
    return VForm._trusted(r.chart, 2, n, _sums(out))


# -- multivector calculus ----------------------------------------------------


def schouten(P: Multivector, Q: Multivector) -> Multivector:
    """Schouten bracket by the coordinate formula (Vaisman, Lectures on the
    Geometry of Poisson Manifolds, 1994, sec. 1): for monomials c xi_I of
    degree p and e xi_J of degree q, with xi_i = d/dx_i,

        [c xi_I, e xi_J] = sum_s (-1)^(p-1-s) c (d_{I_s} e) xi_(I-s) ^ xi_J
                           - sum_t (-1)^t e (d_{J_t} c) xi_I ^ xi_(J-t)

    where I-s omits the s-th index (0-based).  For p, q >= 1 this is the
    decomposable expansion sum (-1)^(s+t) [X_s, Y_t] ^ (the rest), so
    [X, Q] = L_X Q and [X, Y] is the Lie bracket.  Functions are covered by
    the same formula: [P, f] = (-1)^(p-1) i_{df} P and [f, Q] = -i_{df} Q.

    The second sum is -(-1)^((p-1)(q-1)) times the first, S, with the roles
    swapped: xi_(J-t) ^ xi_I = (-1)^((q-1)p) xi_I ^ xi_(J-t), which with
    (-1)^(q-1-t) leaves (-1)^t.  So [P, Q] = S(P, Q) - (-1)^((p-1)(q-1)) S(Q, P).
    """
    if P.chart != Q.chart:
        raise PolyError("chart mismatch")
    chart, p, q = P.chart, P.degree, Q.degree
    n, deg = chart.dim, p + q - 1
    out: dict[Index, Poly] = {}
    if deg < 0 or deg > n:
        return Multivector._trusted(chart, max(deg, 0), out)

    def half(pP: tuple, pQ: tuple, sign: int) -> None:
        p, entries = pP
        for I, c, _ in entries:
            for J, e, de in pQ[1]:
                for s, i in enumerate(I):
                    m = sort_index(I[:s] + I[s + 1:] + J) if de[i] else None
                    if m is not None:
                        _accumulate(out, m[0], c, de[i], m[1] * sign * (-1) ** (p - 1 - s))

    _antisymmetrize(P, Q, (p - 1) * (q - 1), half)
    return Multivector._trusted(chart, deg, _sums(out))


def sharp(P: Multivector, a: DiffForm) -> VForm:
    """Contraction of a bivector with a 1-form: sharp(P, a) = P(a, .)."""
    if P.degree != 2 or a.degree != 1:
        raise ValueError("sharp needs a bivector and a 1-form")
    if P.chart != a.chart:
        raise PolyError("chart mismatch")
    alpha = [a.coeff((i,)) for i in range(P.chart.dim)]
    return VForm.section(P.chart, mat_vec(sharp_matrix(P), alpha))


def sharp_matrix(P: Multivector) -> list[list[Poly]]:
    """Matrix S with sharp(P, a)^j = sum_i S[j][i] a_i.

    S[j][i] = P^{ij}: each stored coefficient P^{ij}, i < j, fills S[j][i]
    and its negation the mirrored S[i][j]."""
    if P.degree != 2:
        raise ValueError("sharp_matrix needs a bivector")
    n = P.chart.dim
    zero = Poly.zero(P.chart)
    S = [[zero] * n for _ in range(n)]
    for (i, j), p in P.coeffs.items():
        S[j][i], S[i][j] = p, -p
    return S


def bivector_from_sharp(chart: Chart, S: Sequence[Sequence[Poly]]) -> Multivector:
    """Rebuild the bivector with P(dx_i, dx_j) = S[j][i] (requires skewness)."""
    coeffs: dict[Index, Poly] = {}
    n = chart.dim
    for i in range(n):
        for j in range(i + 1, n):
            coeffs[(i, j)] = S[j][i]
    return Multivector._trusted(chart, 2, coeffs)
