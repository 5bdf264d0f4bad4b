"""Matrices of polynomials, stored as lists of rows.

Frame matrices appear throughout: the anchor of an algebroid, the matrix of an
endomorphism or of the l symbol, the sharp map of a bivector.  These four
helpers are the only matrix arithmetic in the package.  A product needs a
nonempty inner dimension, since its entries take their chart from the
operands; over a point (a chart of dimension 0) the outer dimensions may be 0.
"""

from __future__ import annotations

from typing import Sequence

from .poly import Chart, Poly

__all__ = ["Matrix", "mat_mul", "mat_vec", "transpose", "identity"]

Matrix = list[list[Poly]]


def _dot(xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    acc = Poly.zero(xs[0].chart)
    for x, y in zip(xs, ys):
        if x.terms and y.terms:
            acc = acc + x * y
    return acc


def mat_vec(M: Sequence[Sequence[Poly]], v: Sequence[Poly]) -> list[Poly]:
    """The vector M v."""
    return [_dot(row, v) for row in M]


def mat_mul(A: Sequence[Sequence[Poly]], B: Sequence[Sequence[Poly]]) -> Matrix:
    """The product A B."""
    cols = list(zip(*B))
    return [[_dot(row, col) for col in cols] for row in A]


def transpose(M: Sequence[Sequence[Poly]]) -> Matrix:
    return [list(col) for col in zip(*M)]


def identity(chart: Chart, n: int) -> Matrix:
    """The n x n identity; its rows are the unit component vectors."""
    one, zero = Poly.const(chart, 1), Poly.zero(chart)
    return [[one if j == i else zero for j in range(n)] for i in range(n)]
