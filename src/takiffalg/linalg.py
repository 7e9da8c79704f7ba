"""Exact rational linear algebra: rank, reduced row echelon form, null spaces.

Matrix entries are exact rationals, `int` or `Fraction`, mixed freely.  Rank
goes through fraction-free elimination on a denominator-cleared integer copy
of the matrix, which is much faster than Fraction pivoting on the matrix
sizes that show up here; integer rows go to it without conversion.  `rref`
runs Gauss-Jordan the same way on the integer copy and divides each pivot
row by its pivot only at the end.  `rank` returns an `int`; `rref` and
`nullspace` return entries that are `int` when integral and `Fraction`
otherwise, and use a fixed pivot order, so results are deterministic.
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


def rref(rows: Matrix) -> tuple[list[list[int | Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices (leftmost-pivot order).

    Gauss-Jordan elimination runs fraction-free on the denominator-cleared
    integer rows: in each column the pivot is the first row at or below the
    current one that meets it (swapped into place), and every other row
    ``row`` with entry ``a`` there becomes ``p * row - a * pivot_row`` (both
    factors divided by gcd(p, a)) over its content.  Each pivot row is
    divided by its pivot only at the end.  The form is unique, so the values
    are those of Fraction Gauss-Jordan; entries are `int` when integral and
    `Fraction` otherwise, and zero rows stay at the bottom.
    """
    m = _cleared_int_rows(rows)
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivrow = m[r]
        p = pivrow[c]
        for i in range(nrows):
            a = m[i][c]
            if i == r or not a:
                continue
            g = gcd(p, a)
            pg, ag = p // g, a // g
            new = [pg * x - ag * y for x, y in zip(m[i], pivrow)]
            g = gcd(*new)
            m[i] = new if g <= 1 else [x // g for x in new]   # g == 0: a zero row
        pivots.append(c)
        r += 1
    for i, c in enumerate(pivots):
        p = m[i][c]
        m[i] = [x // p if x % p == 0 else Fraction(x, p) for x in m[i]]
    return m, pivots


def nullspace(rows: Matrix, ncols: int | None = None) -> list[list[int | Fraction]]:
    """Deterministic basis of the right kernel, one vector per free column.

    The free column's entry is 1, the other free columns' entries 0, and the
    pivot columns' entries are read off `rref`: `int` when integral, else
    `Fraction`.
    """
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise LinearAlgebraError("empty matrix needs an explicit column count")
    else:
        return [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis: list[list[int | Fraction]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec: list[int | Fraction] = [0] * ncols
        vec[free] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][free]
        basis.append(vec)
    return basis
