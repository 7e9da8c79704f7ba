"""Exact rational linear algebra: rank, reduced row echelon form, null spaces.

Rank goes through fraction-free (Bareiss) elimination on a denominator-cleared
integer copy of the matrix, which is much faster than Fraction pivoting on the
matrix sizes that show up here.  RREF and null spaces stay in Fractions and
use a fixed pivot order, so results are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

__all__ = ["rank", "rref", "nullspace", "LinearAlgebraError"]

Matrix = Sequence[Sequence[Fraction]]


class LinearAlgebraError(Exception):
    pass


def _cleared_int_rows(rows: Matrix) -> list[list[int]]:
    # Row scaling by a positive integer never changes the rank.
    out: list[list[int]] = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        lcm = 1
        for x in fr:
            d = x.denominator
            lcm = lcm // gcd(lcm, d) * d
        out.append([int(x * lcm) for x in fr])
    return out


def rank(rows: Matrix) -> int:
    """Exact rank over Q via fraction-free Gaussian elimination."""
    m = _cleared_int_rows(rows)
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pivval = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            if mic:
                rowi = m[i]
                rowr = m[r]
                for j in range(c + 1, ncols):
                    rowi[j] = (pivval * rowi[j] - mic * rowr[j]) // prev
                rowi[c] = 0
            else:
                rowi = m[i]
                for j in range(c + 1, ncols):
                    rowi[j] = (pivval * rowi[j]) // prev
        prev = pivval
        r += 1
    return r


def rref(rows: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices (leftmost-pivot order)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace(rows: Matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Deterministic basis of the right kernel, one vector per free column."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise LinearAlgebraError("empty matrix needs an explicit column count")
    else:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(ncols)]
                for j in range(ncols)]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis: list[list[Fraction]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][free]
        basis.append(vec)
    return basis
