"""Time the polynomial kernel's inner operations, and the index merges of
exterior calculus, on fixed inputs.

Each case prints the best of ``REPEAT`` timings of ``NUMBER`` calls, in
nanoseconds per call:

- ``_Sum.add`` per operand shape: on products whose left factor has one
  term (1xn), whose right factor has one term (nx1), whose factors both
  have several (nxm), and on plain terms, for dimension-2 inputs of degree
  at most 1 and for dimension-3 inputs of degree 3 and 4; and, in
  dimension 2, on an integer constant times a linear input (the most common
  product of the identity checks), on that product added into a sum that
  already holds a fraction, and on a zero operand;
- ``Poly.diff`` and ``Poly.grad``, through which the package forms every
  partial, each on a constant, a linear input in dimension 2 and a dense
  input in dimension 3 of degree 4; and ``Poly.diff`` on a linear input in
  dimension 3 whose partial is a fraction that a gcd reduces (linear inputs
  take the one-lookup path);
- ``_Sum.poly()``, which finishes a sum;
- the sort of an index merge of length 2, 3 and 4 into increasing order
  with its sign, through the public ``sort_index`` (uncached) and through
  ``_sort_tuple``, the cached path the kernels call.

A product accumulates into one sum per timing, with alternating signs so its
numerators stay small.  Standard library only; no argument.

Usage: PYTHONPATH=src python tools/kernel_probe.py
"""

from __future__ import annotations

import sys
import timeit
from fractions import Fraction
from itertools import product

from lnlab.forms import _sort_tuple, sort_index
from lnlab.poly import Chart, Poly, _Sum

NUMBER = 1000
REPEAT = 25


def _homogeneous(chart: Chart, degree: int) -> Poly:
    """Every monomial of the degree, with numerators 1..9 over 1, 2, 3, 6."""
    exps = [e for e in product(range(degree + 1), repeat=chart.dim) if sum(e) == degree]
    return Poly(chart, {e: Fraction((-1) ** i * (i % 9 + 1), (1, 2, 3, 6)[i % 4])
                        for i, e in enumerate(exps)})


def cases() -> list[tuple[str, object]]:
    """(name, callable of no argument) for each timed operation."""
    ch2, ch3 = Chart(("x", "y")), Chart(("x", "y", "z"))
    x2, y2 = Poly.var(ch2, "x"), Poly.var(ch2, "y")
    a, b, mono2 = 2 + x2 - 3 * y2, 2 * x2 + y2 - 1, 3 * x2
    const, three, zero = Poly.const(ch2, Fraction(5, 3)), Poly.const(ch2, 3), Poly.zero(ch2)
    p3, q4 = _homogeneous(ch3, 3), _homogeneous(ch3, 4)
    mono3 = Fraction(2, 3) * Poly(ch3, {(1, 1, 1): 1})
    lin3 = Poly(ch3, {(1, 0, 0): Fraction(2, 3), (0, 1, 0): Fraction(1, 6), (0, 0, 0): 1})
    merges = [(2, (1, 0)), (3, (2, 0, 1)), (4, (3, 1, 0, 2))]

    def add(chart: Chart, x: Poly, y: Poly | None, start: Poly | None = None):
        acc, signs = _Sum(chart), [1, -1]
        if start is not None:
            acc.add(start)

        def run() -> None:
            signs.reverse()
            acc.add(x, y, signs[0])
        return run

    finished = _Sum(ch3)
    finished.add(p3, q4)
    finished.add(mono3, q4, -1)
    return [
        ("_Sum.add 1xn, dim 2, deg <= 1", add(ch2, mono2, a)),
        ("_Sum.add nx1, dim 2, deg <= 1", add(ch2, a, mono2)),
        ("_Sum.add nxm, dim 2, deg <= 1", add(ch2, a, b)),
        ("_Sum.add plain, dim 2, deg <= 1", add(ch2, a, None)),
        ("_Sum.add integer constant x linear, dim 2", add(ch2, three, a)),
        ("_Sum.add integer constant x linear into a fraction, dim 2",
         add(ch2, three, a, const)),
        ("_Sum.add zero operand, dim 2", add(ch2, zero, a)),
        ("_Sum.add 1xn, dim 3, deg 3 x 4", add(ch3, mono3, q4)),
        ("_Sum.add nx1, dim 3, deg 4 x 3", add(ch3, q4, mono3)),
        ("_Sum.add nxm, dim 3, deg 3 x 4", add(ch3, p3, q4)),
        ("_Sum.add plain, dim 3, deg 4", add(ch3, q4, None)),
        ("Poly.diff constant", lambda: const.diff(0)),
        ("Poly.diff linear, dim 2", lambda: a.diff(0)),
        ("Poly.diff dense, dim 3, deg 4", lambda: q4.diff(1)),
        ("Poly.grad constant", const.grad),
        ("Poly.grad linear, dim 2", a.grad),
        ("Poly.grad dense, dim 3, deg 4", q4.grad),
        ("Poly.diff linear, dim 3, fraction reduced by a gcd", lambda: lin3.diff(0)),
        ("_Sum.poly dim 3, deg 7", finished.poly),
    ] + [(f"sort_index merge of length {n}", lambda idx=idx: sort_index(idx))
         for n, idx in merges] + [
        (f"_sort_tuple merge of length {n}", lambda idx=idx: _sort_tuple(idx))
        for n, idx in merges]


def main(number: int = NUMBER, repeat: int = REPEAT) -> int:
    for name, fn in cases():
        best = min(timeit.repeat(fn, number=number, repeat=repeat))
        print(f"{name}: {best / number * 1e9:.1f} ns/call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
