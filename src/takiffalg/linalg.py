"""Exact rational linear algebra: rank, reduced row echelon form, null spaces.

Matrix entries are exact rationals, `int` or `Fraction`, mixed freely.  Rank
goes through fraction-free elimination on a denominator-cleared integer copy
of the matrix, which is much faster than Fraction pivoting on the matrix
sizes that show up here; integer rows go to it without conversion.
`rank` returns an `int`; `rref` and `nullspace` return `Fraction` entries and
use a fixed pivot order, so results are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

__all__ = ["rank", "rref", "nullspace", "LinearAlgebraError"]

Matrix = Sequence[Sequence[int | Fraction]]


class LinearAlgebraError(Exception):
    pass


def _cleared_int_rows(rows: Matrix) -> list[list[int]]:
    # Row scaling by a positive integer never changes the rank.  An all-int
    # row is copied as it is; otherwise `int` and `Fraction` both carry
    # numerator and denominator, so no Fraction is built.
    out: list[list[int]] = []
    for row in rows:
        if {*map(type, row)} <= {int}:
            out.append(list(row))
            continue
        lcm = 1
        for x in row:
            d = x.denominator
            lcm = lcm // gcd(lcm, d) * d
        out.append([x.numerator * (lcm // x.denominator) for x in row])
    return out


def rank(rows: Matrix) -> int:
    """Exact rank over Q via fraction-free Gaussian elimination.

    Zero rows and columns are dropped and the other columns are taken
    sparsest first; in each column the pivot is the sparsest row that meets
    it.  Rows are kept primitive (entries divided by their gcd): a row with a
    nonzero entry ``a`` in the pivot column becomes ``p * row - a * pivot_row``
    (both factors divided by gcd(p, a)) over its content, and every other row
    is left as it is.  Each kept row is proportional to the Bareiss row of
    the same pivot order, so its entries never exceed those minors in size,
    while rows that the pivot does not meet cost nothing.  After a pivot step
    only the rows still without a pivot are kept, cut to the columns right of
    it, and rows that become zero are dropped.
    """
    m = [row for row in _cleared_int_rows(rows) if any(row)]
    if len(m) < 2:
        return len(m)
    counts = [len(col) - col.count(0) for col in zip(*m)]
    order = sorted((j for j, c in enumerate(counts) if c), key=counts.__getitem__)
    m = [[row[j] for j in order] for row in m]
    r = 0
    while len(m) > 1:
        k = 0
        while not any(row[k] for row in m):
            k += 1
        piv = min((len(row) - row.count(0), i) for i, row in enumerate(m) if row[k])[1]
        pivrow = m.pop(piv)
        p = pivrow[k]
        tail = pivrow[k + 1:]
        reduced = []
        for row in m:
            a = row[k]
            if not a:
                reduced.append(row[k + 1:])
                continue
            g = gcd(p, a)
            pg, ag = p // g, a // g
            new = [pg * x - ag * y for x, y in zip(row[k + 1:], tail)]
            g = gcd(*new)
            if g == 1:
                reduced.append(new)
            elif g:
                reduced.append([x // g for x in new])
        m = reduced
        r += 1
    return r + len(m)


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
