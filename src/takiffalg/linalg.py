"""Exact rational linear algebra: rank, reduced row echelon form, null spaces.

Matrix entries are exact rationals, `int` or `Fraction`, mixed freely.  Rank
goes through fraction-free elimination on a denominator-cleared integer copy
of the matrix, which is much faster than Fraction pivoting on the matrix
sizes that show up here; integer rows go to it without conversion.  `rref`
runs Gauss-Jordan the same way on the integer copy and divides each pivot
row by its pivot only at the end.  `rank` returns an `int`; `rref` and
`nullspace` return entries that are `int` when integral and `Fraction`
otherwise, and use a fixed pivot order, so results are deterministic.

Kirillov matrices are skew-symmetric, and `skew_rank` ranks them: each
pivot A[i][j] removes rows and columns i and j at once, and only the strict
upper triangle of the live block is updated.  After pivots p_1, ..., p_t
every live entry is the Pfaffian of the principal submatrix on the pivot
rows and its own pair, the skew analogue of the Bareiss minors, so dividing
each update by the previous pivot is exact (the Pfaffian form of
Sylvester's identity; Knuth, "Overlapping Pfaffians", Electron. J. Combin.
3(2), 1996).  Rational input is cleared with one denominator for the whole
matrix: clearing each row by its own factor would break the skew symmetry.
Every live entry is updated at every pivot, so on wide sparse matrices
`skew_rank` first peels the rows with a single nonzero entry, which cost
nothing, and takes the others sparsest first: the Kirillov matrices of
truncated current algebras are block anti-triangular, and their top-grade
rows are the sparse ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

__all__ = ["rank", "skew_rank", "rref", "nullspace", "LinearAlgebraError"]

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


def skew_rank(rows: Matrix) -> int:
    """Exact rank over Q of a skew-symmetric matrix, by Pfaffian elimination.

    The caller guarantees skew symmetry; the zero pattern of each row and
    the strict upper triangle are read.  First every leaf is peeled: a row
    i whose one nonzero entry is A[i][j] makes (i, j) a pivot whose update
    of the other entries is zero, so i and j leave the matrix at no cost,
    and the rank gains 2.  The rows left are taken sparsest first, a
    symmetric permutation, which keeps the matrix skew.  Then the pivot is
    the first pair i < j of the live block, in that order, with p = A[i][j]
    != 0, and each pivot adds 2 to the rank.  Rows and columns i and j
    leave the block, and every live pair k < l becomes

        (p A[k][l] + A[j][k] A[i][l] - A[i][k] A[j][l]) / prev,

    with prev the previous pivot (1 at the start), an exact division (see
    the module docstring).  Elimination stops when the live block is zero;
    a block of size 1 is zero, so a pivot that leaves at most 1 live index
    ends it, and a nonzero matrix of size at most 3 has rank 2.
    """
    n = len(rows)
    if n <= 3:      # the bases sl2, heis1 and nilrad_sl3 are 3-dimensional
        return 2 if any(map(any, rows)) else 0
    degree = [len(row) - row.count(0) for row in rows]
    r = 0
    if 1 in degree:
        nbrs = [{l for l, x in enumerate(row) if x} for row in rows]
        leaves = [k for k in range(n) if degree[k] == 1]
        while leaves:
            i = leaves.pop()
            if len(nbrs[i]) != 1:
                continue            # its partner left with another leaf
            (j,) = nbrs[i]
            for k in nbrs[j]:
                nbrs[k].discard(j)
                if len(nbrs[k]) == 1:
                    leaves.append(k)
            nbrs[j] = set()
            r += 2
        degree = [len(nb) for nb in nbrs]
    order = sorted((k for k in range(n) if degree[k]), key=degree.__getitem__)
    if order == list(range(n)):
        up = [list(row[k + 1:]) for k, row in enumerate(rows)]
    else:
        up = [[rows[k][l] for l in order[a + 1:]] for a, k in enumerate(order)]
    if not {type(x) for row in up for x in row} <= {int}:
        den = 1
        for row in up:
            for x in row:
                d = x.denominator
                den = den // gcd(den, d) * d
        up = [[x.numerator * (den // x.denominator) for x in row] for row in up]
    # up[a] holds A[a][a+1:] of the live block; leading zero rows are dropped
    prev = 1
    while True:
        n = len(up)
        s = 0
        while s < n and not any(up[s]):
            s += 1
        if s == n:
            return r
        if n - s <= 3:
            return r + 2
        up = up[s:]
        row_i = up[0]
        j = next(l for l, x in enumerate(row_i) if x) + 1
        p = row_i[j - 1]
        # rows i = 0 and j of the block in full, for A[i][k] and A[j][k]
        full_i = [0] + row_i
        full_j = [-up[k][j - k - 1] for k in range(j)] + [0] + up[j]
        live = []
        for k in range(1, n - s):
            if k == j:
                continue
            a_ik, a_jk = full_i[k], full_j[k]
            row = up[k]
            if a_ik or a_jk:
                row = [(p * x + a_jk * y - a_ik * z) // prev
                       for x, y, z in zip(row, full_i[k + 1:], full_j[k + 1:])]
            elif p != prev:
                row = [p * x // prev for x in row]
            if k < j:                   # up is built afresh, never the input
                del row[j - k - 1]
            live.append(row)
        up = live
        prev = p
        r += 2


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
