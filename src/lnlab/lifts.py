"""Total-space calculus for a framed bundle.

A framed bundle E over a chart gets a total chart with coordinates
(x_1, ..., x_m, xi^1, ..., xi^n), base first.  Sections lift to vertical
vector fields, generalized derivations linearize to tangent-valued forms on
the total space, and the tangent and cotangent lifts of an endomorphism are
obtained by linearizing the derivations it induces on TM and T*M.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Chart, Poly, PolyError
from .forms import (DiffForm, VForm, frolicher_nijenhuis, sort_index,
                    vf_bracket)
from .gder import FramedBundle, GenDer, build_drT, build_drTstar
from .report import CheckReport

__all__ = [
    "TotalChart",
    "LinVVForm",
    "vertical_lift",
    "euler",
    "v_map",
    "phi_up",
    "linearize",
    "verify_correspondence",
    "check_linearity",
    "derivation_from_linear_fields",
    "tangent_lift",
    "cotangent_lift",
]


def _fiber_name(frame_name: str, base_coords: tuple[str, ...]) -> str:
    """Fiber coordinate name for one frame section.

    Tangent frames (@x) get velocity-style names, cotangent frames (dx) get
    momentum-style names, anything else a xi_ prefix.
    """
    if frame_name.startswith("@"):
        return "v" + frame_name[1:]
    if frame_name.startswith("d") and frame_name[1:] in base_coords:
        return "p" + frame_name[1:]
    return "xi_" + frame_name.replace("*", "s").replace("@", "")


@dataclass(frozen=True)
class TotalChart:
    """Chart on the total space of a framed bundle, base coordinates first."""

    bundle: FramedBundle
    chart: Chart

    @staticmethod
    def of(bundle: FramedBundle) -> "TotalChart":
        base = bundle.chart.coords
        fiber = tuple(_fiber_name(f, base) for f in bundle.frame)
        names = base + fiber
        if len(set(names)) != len(names):
            raise PolyError("fiber coordinate names collide with the base chart")
        return TotalChart(bundle, Chart(names))

    @property
    def base_dim(self) -> int:
        return self.bundle.chart.dim

    @property
    def rank(self) -> int:
        return self.bundle.rank

    @property
    def dim(self) -> int:
        return self.chart.dim

    def fiber_index(self, a: int) -> int:
        return self.base_dim + a

    def pull(self, p: Poly) -> Poly:
        """Pull a base polynomial back to the total chart."""
        if p.chart != self.bundle.chart:
            raise PolyError("polynomial does not live on the base chart")
        pad = (0,) * self.rank
        return Poly(self.chart, {exp + pad: c for exp, c in p.terms.items()})

    def restrict(self, p: Poly) -> Poly:
        """Push a fiberwise-constant total polynomial down to the base."""
        m = self.base_dim
        terms = {}
        for exp, c in p.terms.items():
            if any(exp[m:]):
                raise PolyError("polynomial depends on the fiber coordinates")
            terms[exp[:m]] = c
        return Poly(self.bundle.chart, terms)

    def pull_form(self, a: DiffForm) -> DiffForm:
        """Pull a base form back along the projection (indices unchanged)."""
        return DiffForm(self.chart, a.degree,
                        {idx: self.pull(p) for idx, p in a.coeffs.items()})


@dataclass
class LinVVForm:
    """Tangent-valued form on a total chart, linear over the fibers.

    ``source`` records the generalized derivation it linearizes when known.
    """

    total: TotalChart
    form: VForm
    source: GenDer | None = None

    @property
    def degree(self) -> int:
        return self.form.degree


def vertical_lift(tc: TotalChart, u: VForm) -> VForm:
    """Vertical lift of a section: sum of u^a d/dxi^a with pulled-back
    coefficients."""
    if u.degree != 0 or u.vals != tc.rank or u.chart != tc.bundle.chart:
        raise PolyError("expected a section of the bundle")
    comps = [Poly.zero(tc.chart)] * tc.dim
    for a, p in enumerate(u.section_components()):
        comps[tc.fiber_index(a)] = tc.pull(p)
    return VForm.section(tc.chart, comps)


def euler(tc: TotalChart) -> VForm:
    """The fiberwise radial vector field sum of xi^a d/dxi^a."""
    comps = [Poly.zero(tc.chart)] * tc.dim
    for a in range(tc.rank):
        i = tc.fiber_index(a)
        comps[i] = Poly.coord(tc.chart, i)
    return VForm.section(tc.chart, comps)


def v_map(tc: TotalChart, gamma: VForm) -> VForm:
    """Bundle-valued j-form on the base as a vertical tangent-valued j-form
    on the total chart: a (x) u goes to q*a (x) (vertical lift of u)."""
    if gamma.vals != tc.rank or gamma.chart != tc.bundle.chart:
        raise PolyError("expected a bundle-valued form on the base")
    coeffs = {(idx, tc.fiber_index(a)): tc.pull(p)
              for (idx, a), p in gamma.coeffs.items()}
    return VForm(tc.chart, gamma.degree, tc.dim, coeffs)


def phi_up(tc: TotalChart, phi_frame: list[VForm]) -> LinVVForm:
    """Fiberwise-linear vertical form of an endomorphism-valued k-form.

    ``phi_frame[a]`` is the bundle-valued k-form obtained by feeding the a-th
    frame section to the endomorphism slot.  The identity endomorphism (k = 0)
    produces the Euler vector field.
    """
    if len(phi_frame) != tc.rank:
        raise PolyError("one value per frame section is required")
    k = phi_frame[0].degree
    coeffs: dict[tuple[tuple[int, ...], int], Poly] = {}
    for a, val in enumerate(phi_frame):
        if (val.chart, val.degree, val.vals) != (tc.bundle.chart, k, tc.rank):
            raise PolyError("phi_frame entry has wrong shape")
        xi = Poly.coord(tc.chart, tc.fiber_index(a))
        for (idx, b), p in val.coeffs.items():
            key = (idx, tc.fiber_index(b))
            term = tc.pull(p) * xi
            prev = coeffs.get(key)
            coeffs[key] = term if prev is None else prev + term
    return LinVVForm(tc, VForm(tc.chart, k, tc.dim, coeffs), None)


def linearize(D: GenDer) -> LinVVForm:
    """Linear tangent-valued k-form on the total space of the bundle whose
    vertical-lift brackets reproduce the derivation.

    In the total chart it is the three-block sum

        sum r^I_j dx_I (x) d/dx_j
        + sum xi^a D_a^{I,b} dx_I (x) d/dxi^b
        + sum l^{I,b}_a dxi^a ^ dx_I (x) d/dxi^b.
    """
    tc = TotalChart.of(D.bundle)
    k = D.degree
    coeffs: dict[tuple[tuple[int, ...], int], Poly] = {}

    def add(key: tuple[tuple[int, ...], int], p: Poly) -> None:
        prev = coeffs.get(key)
        q = p if prev is None else prev + p
        if q.is_zero:
            coeffs.pop(key, None)
        else:
            coeffs[key] = q

    for (idx, j), p in D.r.coeffs.items():
        add((idx, j), tc.pull(p))
    for a in range(tc.rank):
        xi = Poly.coord(tc.chart, tc.fiber_index(a))
        for (idx, b), p in D.d_frame[a].coeffs.items():
            add((idx, tc.fiber_index(b)), tc.pull(p) * xi)
        if D.l_frame is not None:
            for (idx, b), p in D.l_frame[a].coeffs.items():
                s = sort_index((tc.fiber_index(a),) + idx)
                key, sign = s
                add((key, tc.fiber_index(b)), tc.pull(p) * sign)
    return LinVVForm(tc, VForm(tc.chart, k, tc.dim, coeffs), D)


def _probe_sections(bundle: FramedBundle) -> list[tuple[str, VForm]]:
    """Frame sections plus coordinate-scaled ones, to exercise the Leibniz
    behaviour of non-tensorial defects."""
    chart = bundle.chart
    out = []
    for a in range(bundle.rank):
        u = bundle.frame_section(a)
        out.append((bundle.frame[a], u))
        for i in range(chart.dim):
            out.append((f"{chart.coords[i]}.{bundle.frame[a]}",
                        u * Poly.coord(chart, i)))
    return out


def verify_correspondence(K: LinVVForm, D: GenDer) -> CheckReport:
    """Defect tables of the three lift/derivation equations:

        V(D(u)) = L_{u^}K,   V(l(u)) = K(u^, .),   q*<b, r> = <K, q*b>

    for probe sections u and base coordinate 1-forms b; all zero exactly when
    K is the linearization of the derivation.
    """
    tc = K.total
    if D.bundle != tc.bundle:
        raise PolyError("form and derivation live on different bundles")
    report = CheckReport("lift/derivation correspondence")
    for name, u in _probe_sections(D.bundle):
        up = vertical_lift(tc, u)
        lhs = v_map(tc, D.apply(u))
        rhs = frolicher_nijenhuis(up, K.form)
        report.add_zero("vertical lift of D", lhs - rhs, detail=name)
        if D.degree > 0:
            lhs2 = v_map(tc, D.apply_l(u))
            rhs2 = K.form.insert_vector(up)
            report.add_zero("vertical lift of l", lhs2 - rhs2, detail=name)
    for j in range(tc.base_dim):
        defect = tc.pull_form(D.r.component(j)) - K.form.component(j)
        report.add_zero("symbol pairing", defect,
                        detail=f"d{tc.bundle.chart.coords[j]}")
    return report


def check_linearity(tc: TotalChart, K: VForm) -> CheckReport:
    """A tangent-valued form on the total chart is fiberwise linear exactly
    when its Lie derivative along the Euler field vanishes."""
    report = CheckReport("fiberwise linearity")
    report.add_zero("Euler Lie derivative", frolicher_nijenhuis(euler(tc), K))
    return report


def derivation_from_linear_fields(K: LinVVForm, fields: list[VForm]) -> GenDer:
    """Degree-0 derivation of the linear vector field K(U_1, ..., U_k).

    Each U_i must be a linear vector field on the total chart.  The result G
    acts on frame sections by the vertical-lift bracket, G(u)^ = [U, u^],
    and its symbol is minus the base part of U.
    """
    tc = K.total
    if len(fields) != K.degree:
        raise PolyError("need one linear field per form slot")
    E = euler(tc)
    for U in fields:
        if not vf_bracket(E, U).is_zero:
            raise PolyError("argument field is not linear")
    U = K.form
    for X in fields:
        U = U.insert_vector(X)
    U = VForm.section(tc.chart, U.section_components())
    if not vf_bracket(E, U).is_zero:
        raise PolyError("evaluated field is not linear")
    bundle = tc.bundle
    m = tc.base_dim
    d_out = []
    for a in range(bundle.rank):
        B = vf_bracket(U, vertical_lift(tc, bundle.frame_section(a)))
        comps = B.section_components()
        if any(not p.is_zero for p in comps[:m]):
            raise PolyError("bracket with a vertical lift is not vertical")
        d_out.append(VForm.section(bundle.chart,
                                   [tc.restrict(p) for p in comps[m:]]))
    Ucomps = U.section_components()
    symbol = VForm.section(bundle.chart, [-tc.restrict(Ucomps[j]) for j in range(m)])
    return GenDer(bundle, 0, d_out, None, symbol)


def tangent_lift(r: VForm) -> LinVVForm:
    """Linear tangent-valued form on TM induced by a tangent-valued form."""
    return linearize(build_drT(r))


def cotangent_lift(r: VForm) -> LinVVForm:
    """Linear tangent-valued form on T*M induced by an endomorphism."""
    return linearize(build_drTstar(r))
