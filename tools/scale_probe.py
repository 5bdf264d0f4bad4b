"""Time the checkers and [D^r, D^r] on two known-verdict families at dimensions 4-8.

Each family gives a pair (pi, r) on R^d, d = 4, 6 and 8:

- ``separable(n)``: pi = sum @x_i ^ @y_i and r = sum x_i (@x_i (x) dx_i +
  @y_i (x) dy_i), on (x_1, y_1, ..., x_n, y_n).  A product of n copies of
  the PN pair (x @x^@y, x id) of the plane, so it passes every check.
- ``benenti(n)``: the canonical pi on T*R^n and the cotangent lift of the
  Benenti tensor L = diag(1, ..., n) + q q^T, which is Nijenhuis, so the pair
  is PN (Ibort, Magri & Marmo, J. Geom. Phys. 2000).  ``benenti(n, e12=True)``
  adds E_12 to L, which makes its torsion nonzero: that point fails
  ``check_pn`` on exactly "Nijenhuis torsion N_r" and "deformed bivector
  Poisson [pi_r,pi_r]", fails ``check_lnb`` and passes ``check_bialgebroid``.

Each point runs ``check_pn``, ``check_bialgebroid(TM, T*M_pi)``,
``check_lnb(TM, T*M_pi, D^r)``, ``mm1_identity`` along the Euler field
X = sum x_k @x_k (the derivation identity of the concomitant C holds for
every (pi, r, X), so it passes at every point) and ``gder.bracket(D^r,
D^r)``, the self-bracket that ``check_lnb`` forms, which passes when it is
zero: [D^r, D^r] = 2 D^{N_r}, so it fails only at the torsion point.  It
prints one line with each verdict, then the median and the interquartile
range (inclusive quartiles) of ``REPEAT`` single calls in milliseconds, then
the work of one call: its calls of the polynomial kernel's accumulator
``_Sum.add``, of ``_Sum.poly``, which finishes a sum, and of ``Poly.diff``,
as ``check_pn PASS 0.87 ms (IQR 0.09) add 304 sum 128 diff 120``.  On a
shared host the best of a few calls moves by tens of percent between runs of
the same code, so a before/after comparison reads the median against the
spread; the counts repeat exactly and show a change of work with no timing
noise.  Standard library and the lnlab API only, with the three kernel
methods wrapped here for the counts; no argument.

Usage: PYTHONPATH=src python tools/scale_probe.py
"""

from __future__ import annotations

import statistics
import sys
import timeit

from lnlab.algebroid import check_bialgebroid, cotangent_of_poisson, tangent_algebroid
from lnlab.forms import Multivector, VForm
from lnlab.gder import GenDer, bracket, build_drT, cotangent_bundle
from lnlab.lifts import TotalChart, cotangent_lift
from lnlab.lnb import LNCandidate, check_lnb
from lnlab.pnlab import PNCandidate, check_pn, mm1_identity
from lnlab.poly import Chart, Poly, _Sum

DIMS = (4, 6, 8)
REPEAT = 11
KERNEL = ((_Sum, "add"), (_Sum, "poly"), (Poly, "diff"))


def separable(n: int) -> tuple[Multivector, VForm]:
    """(sum @x_i^@y_i, sum x_i (@x_i (x) dx_i + @y_i (x) dy_i)) on R^2n."""
    chart = Chart(tuple(f"{c}{i}" for i in range(1, n + 1) for c in "xy"))
    pi = Multivector(chart, 2, {(2 * i, 2 * i + 1): Poly.const(chart, 1) for i in range(n)})
    r = VForm(chart, 1, 2 * n, {((k,), k): Poly.coord(chart, k - k % 2)
                                for k in range(2 * n)})
    return pi, r


def benenti(n: int, e12: bool = False) -> tuple[Multivector, VForm]:
    """(sum @q_i^@p_i, cotangent lift of diag(1..n) + q q^T [+ E_12]) on T*R^n."""
    base = Chart(tuple(f"q{i}" for i in range(1, n + 1)))
    q = [Poly.coord(base, i) for i in range(n)]
    L = {((j,), i): q[i] * q[j] + (i + 1 if i == j else 0) for i in range(n) for j in range(n)}
    if e12:
        L[((1,), 0)] += 1
    chart = TotalChart.of(cotangent_bundle(base)).chart
    pi = Multivector(chart, 2, {(i, n + i): Poly.const(chart, 1) for i in range(n)})
    return pi, cotangent_lift(VForm(base, 1, n, L))


def points(dims=DIMS) -> list[tuple[str, int, Multivector, VForm]]:
    """(family, dimension, pi, r) for every point, in print order."""
    families = (("separable", separable), ("benenti", benenti),
                ("benenti+E12", lambda n: benenti(n, e12=True)))
    return [(name, d, *make(d // 2)) for name, make in families for d in dims]


def checks(pi: Multivector, r: VForm) -> list[tuple[str, object]]:
    """(checker, callable of no argument returning its report, or the
    bracket [D^r, D^r]) for one point."""
    chart = pi.chart
    TM, TsM = tangent_algebroid(chart), cotangent_of_poisson(pi)
    euler = VForm.section(chart, [Poly.coord(chart, k) for k in range(chart.dim)])
    D = build_drT(r)
    return [("check_pn", lambda: check_pn(PNCandidate(pi, r))),
            ("check_bialgebroid", lambda: check_bialgebroid(TM, TsM)),
            ("check_lnb", lambda: check_lnb(LNCandidate(TM, TsM, build_drT(r)))),
            ("mm1_identity", lambda: mm1_identity(PNCandidate(pi, r), euler)),
            ("bracket", lambda: bracket(D, D))]


def verdict(out) -> str:
    """A checker report's verdict; for a derivation, PASS when it is zero."""
    if isinstance(out, GenDer):
        parts = out.d_frame + (out.l_frame or []) + [out.r]
        return "PASS" if all(v.is_zero for v in parts) else "FAIL"
    return out.verdict


def work_counts(fn) -> list[int]:
    """The calls of ``_Sum.add``, ``_Sum.poly`` and ``Poly.diff`` made by
    one call of ``fn``, in that order."""
    counts = [0] * len(KERNEL)
    saved = [getattr(owner, attr) for owner, attr in KERNEL]

    def counting(i, method):
        def counted(*args, **kwargs):
            counts[i] += 1
            return method(*args, **kwargs)
        return counted
    try:
        for i, ((owner, attr), method) in enumerate(zip(KERNEL, saved)):
            setattr(owner, attr, counting(i, method))
        fn()
    finally:
        for (owner, attr), method in zip(KERNEL, saved):
            setattr(owner, attr, method)
    return counts


def main(dims=DIMS, repeat: int = REPEAT) -> int:
    """Print one line per point, timing ``repeat`` (at least 2, for the
    quartiles) single calls of each checker and counting the kernel calls
    of one more."""
    for name, d, pi, r in points(dims):
        parts = []
        for check, fn in checks(pi, r):
            result = verdict(fn())
            q1, median, q3 = statistics.quantiles(
                [t * 1e3 for t in timeit.repeat(fn, number=1, repeat=repeat)],
                n=4, method="inclusive")
            add, finished, diff = work_counts(fn)
            parts.append(f"{check} {result} {median:.2f} ms (IQR {q3 - q1:.2f})"
                         f" add {add} sum {finished} diff {diff}")
        print(f"{name} dim {d}: " + ", ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
