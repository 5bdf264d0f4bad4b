"""Total-space calculus for a framed bundle.

A framed bundle E over a chart gets a total chart with coordinates
(x_1, ..., x_m, xi^1, ..., xi^n), base first.  Sections lift to vertical
vector fields, generalized derivations linearize to tangent-valued forms on
the total space, and the tangent and cotangent lifts of an endomorphism are
obtained by linearizing the derivations it induces on TM and T*M.  A lifted
form is a plain ``VForm`` on ``TotalChart.of(bundle).chart``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Chart, Poly, PolyError, _rechart
from .forms import (DiffForm, VForm, _accumulate, _sums, frolicher_nijenhuis,
                    sort_index)
from .gder import FramedBundle, GenDer, build_drT, build_drTstar
from .report import CheckReport

__all__ = [
    "TotalChart",
    "vertical_lift",
    "v_map",
    "phi_up",
    "linearize",
    "verify_correspondence",
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
        """Fiber coordinates are named by ``_fiber_name``; a name already taken
        by a base or earlier fiber coordinate (as "vx" is when the tangent
        bundle of a lifted chart is lifted again) gets the first free suffix
        _1, _2, ..."""
        base = bundle.chart.coords
        names = list(base)
        for f in bundle.frame:
            name = fresh = _fiber_name(f, base)
            k = 0
            while fresh in names:
                k += 1
                fresh = f"{name}_{k}"
            names.append(fresh)
        return TotalChart(bundle, Chart(tuple(names)))

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
        return _rechart(p, self.chart)

    def pull_form(self, a: DiffForm) -> DiffForm:
        """Pull a base form back along the projection (indices unchanged)."""
        return DiffForm(self.chart, a.degree,
                        {idx: self.pull(p) for idx, p in a.coeffs.items()})


def vertical_lift(tc: TotalChart, u: VForm) -> VForm:
    """Vertical lift of a section: sum of u^a d/dxi^a with pulled-back
    coefficients."""
    if u.degree != 0 or u.vals != tc.rank or u.chart != tc.bundle.chart:
        raise PolyError("expected a section of the bundle")
    return v_map(tc, u)


def v_map(tc: TotalChart, gamma: VForm) -> VForm:
    """Bundle-valued j-form on the base as a vertical tangent-valued j-form
    on the total chart: a (x) u goes to q*a (x) (vertical lift of u)."""
    if gamma.vals != tc.rank or gamma.chart != tc.bundle.chart:
        raise PolyError("expected a bundle-valued form on the base")
    coeffs = {(idx, tc.fiber_index(a)): tc.pull(p)
              for (idx, a), p in gamma.coeffs.items()}
    return VForm(tc.chart, gamma.degree, tc.dim, coeffs)


def phi_up(tc: TotalChart, phi_frame: list[VForm]) -> VForm:
    """Fiberwise-linear vertical form of an endomorphism-valued k-form.

    ``phi_frame[a]`` is the bundle-valued k-form obtained by feeding the a-th
    frame section to the endomorphism slot.  The identity endomorphism (k = 0)
    produces the Euler vector field; a rank-0 bundle the zero vector field.
    """
    if len(phi_frame) != tc.rank:
        raise PolyError("one value per frame section is required")
    k = phi_frame[0].degree if phi_frame else 0
    coeffs: dict[tuple[tuple[int, ...], int], Poly] = {}
    for a, val in enumerate(phi_frame):
        if (val.chart, val.degree, val.vals) != (tc.bundle.chart, k, tc.rank):
            raise PolyError("phi_frame entry has wrong shape")
        xi = Poly.coord(tc.chart, tc.fiber_index(a))
        for (idx, b), p in val.coeffs.items():
            _accumulate(coeffs, (idx, tc.fiber_index(b)), tc.pull(p), xi)
    return VForm(tc.chart, k, tc.dim, _sums(coeffs))


def linearize(D: GenDer) -> VForm:
    """Linear tangent-valued k-form on ``TotalChart.of(D.bundle).chart`` whose
    vertical-lift brackets reproduce the derivation.

    In the total chart it is the three-block sum

        sum r^I_j dx_I (x) d/dx_j
        + sum xi^a D_a^{I,b} dx_I (x) d/dxi^b
        + sum l^{I,b}_a dxi^a ^ dx_I (x) d/dxi^b.
    """
    tc = TotalChart.of(D.bundle)
    # the three blocks have disjoint keys: base, vertical, vertical with dxi
    coeffs = dict(phi_up(tc, D.d_frame).coeffs)
    for (idx, j), p in D.r.coeffs.items():
        coeffs[(idx, j)] = tc.pull(p)
    for a, val in enumerate(D.l_frame or ()):
        for (idx, b), p in val.coeffs.items():
            key, sign = sort_index((tc.fiber_index(a),) + idx)
            coeffs[(key, tc.fiber_index(b))] = tc.pull(p) * sign
    return VForm(tc.chart, D.degree, tc.dim, coeffs)


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


def verify_correspondence(K: VForm, D: GenDer) -> CheckReport:
    """Defect tables of the three lift/derivation equations:

        V(D(u)) = L_{u^}K,   V(l(u)) = K(u^, .),   q*<b, r> = <K, q*b>

    for probe sections u and base coordinate 1-forms b; all zero exactly when
    K is the linearization of the derivation.  K must be a tangent-valued
    form on ``TotalChart.of(D.bundle).chart``.
    """
    tc = TotalChart.of(D.bundle)
    if K.chart != tc.chart:
        raise PolyError("form does not live on the total chart of the bundle")
    report = CheckReport("lift/derivation correspondence")
    for name, u in _probe_sections(D.bundle):
        up = vertical_lift(tc, u)
        lhs = v_map(tc, D.extend(u))
        rhs = frolicher_nijenhuis(up, K)
        report.add_zero("vertical lift of D", lhs - rhs, detail=name)
        if D.degree > 0:
            lhs2 = v_map(tc, D.apply_l(u))
            rhs2 = K.insert_vector(up)
            report.add_zero("vertical lift of l", lhs2 - rhs2, detail=name)
    for j in range(tc.base_dim):
        defect = tc.pull_form(D.r.component(j)) - K.component(j)
        report.add_zero("symbol pairing", defect,
                        detail=f"d{tc.bundle.chart.coords[j]}")
    return report


def tangent_lift(r: VForm) -> VForm:
    """Linear tangent-valued form on TM induced by a tangent-valued form."""
    return linearize(build_drT(r))


def cotangent_lift(r: VForm) -> VForm:
    """Linear tangent-valued form on T*M induced by an endomorphism."""
    return linearize(build_drTstar(r))
