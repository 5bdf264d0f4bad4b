"""Known-verdict families: lifts of a pair (pi, r) on M to TM.

The complete lift of a bivector,

    pi^c = sum_{i<j} pi^{ij} (@x_i ^ @v_j + @v_i ^ @x_j)
           + sum_{i<j} sum_k v_k d_k pi^{ij} @v_i ^ @v_j,

on the total chart (x, v) of TM, pairs with the tangent lift r^c of r
(``lifts.tangent_lift``).  Both lifts commute with the Schouten and
Froelicher-Nijenhuis brackets (Yano & Ishihara, "Tangent and Cotangent
Bundles", 1973; Grabowski & Urbanski, J. Phys. A 28, 1995), so (pi^c, r^c)
is Poisson-Nijenhuis exactly when (pi, r) is.
"""

from lnlab.forms import Multivector
from lnlab.gder import tangent_bundle
from lnlab.lifts import TotalChart
from lnlab.poly import Poly


def complete_lift(pi: Multivector) -> Multivector:
    """pi^c on ``TotalChart.of(tangent_bundle(pi.chart)).chart``."""
    tc = TotalChart.of(tangent_bundle(pi.chart))
    n = pi.chart.dim
    v = [Poly.coord(tc.chart, n + k) for k in range(n)]
    coeffs = {}
    for (i, j), p in pi.coeffs.items():
        coeffs[(i, n + j)] = tc.pull(p)
        coeffs[(j, n + i)] = -tc.pull(p)
        coeffs[(n + i, n + j)] = sum((v[k] * tc.pull(d) for k, d in enumerate(p.grad())),
                                     Poly.zero(tc.chart))
    return Multivector(tc.chart, 2, coeffs)
