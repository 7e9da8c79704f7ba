"""Independent reference implementations used only to cross-check the package.

Nothing here imports the modules under test beyond plain data types, and the
algorithms are deliberately the naive ones: truncated dual-number arithmetic
coefficient by coefficient, rank, reduced row echelon form and kernels by
plain fraction Gaussian elimination, rank by textbook Bareiss elimination
on integers, regularity of a dual point from that rank, brackets of
elements, Kirillov matrices
and Jacobi residuals in Fractions straight from the bracket table, the Lie
subalgebra generated by basis elements as a Fraction span closure, Poisson
brackets with basis elements as a gradient times the Kirillov matrix, and
the coadjoint action of a truncated current algebra by two routes, one
through its own structure constants and one componentwise through the base
algebra's; the derivative identity of an expanded family one variable
at a time; and membership in the depth-one null fiber N<1>, every family
member evaluated term by term, beside the base-level characterization it
is certified to equal.  Algebras, polynomials and gradings are read only
through their raw data: basis names, bracket tables, term dictionaries and
grade maps; the one package method called is `Polynomial.partial`, the
derivative identity's per-variable route.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


class EpsValue:
    """Number of the form c0 + c1*eps + ... + cm*eps^m with eps^(m+1) = 0."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[Fraction]):
        assert len(coeffs) == order + 1
        self.order = order
        self.coeffs = [Fraction(c) for c in coeffs]

    @classmethod
    def const(cls, order: int, c) -> "EpsValue":
        return cls(order, [Fraction(c)] + [Fraction(0)] * order)

    def __add__(self, other: "EpsValue") -> "EpsValue":
        return EpsValue(self.order,
                        [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other) -> "EpsValue":
        if isinstance(other, (int, Fraction)):
            return EpsValue(self.order, [c * other for c in self.coeffs])
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.order:
                    break
                out[i + j] += a * b
        return EpsValue(self.order, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "EpsValue":
        acc = EpsValue.const(self.order, 1)
        for _ in range(e):
            acc = acc * self
        return acc

    def __eq__(self, other) -> bool:
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"EpsValue({self.coeffs})"


def eval_poly_eps(poly, assignment: dict[str, EpsValue]) -> EpsValue:
    """Evaluate a package Polynomial with dual-number values for its variables.

    Walks the raw term dictionary directly so no package evaluation code is
    exercised.
    """
    order = next(iter(assignment.values())).order
    total = EpsValue.const(order, 0)
    for mono, coeff in poly.terms.items():
        term = EpsValue.const(order, coeff)
        for idx, exp in mono:
            term = term * (assignment[poly.varset[idx]] ** exp)
        total = total + term
    return total


def naive_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by textbook Gaussian elimination over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def bareiss_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by Bareiss fraction-free elimination on a denominator-cleared copy.

    Each row is scaled to integers; columns are taken left to right, the
    pivot is the first row that meets the column, and every row below it
    becomes (p * row - a * pivot_row) / previous pivot, an exact division.
    """
    mat = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (den // x.denominator) for x in row])
    rank, prev = 0, 1
    while mat and mat[0]:
        pivot = next((r for r, row in enumerate(mat) if row[0]), None)
        if pivot is None:
            mat = [row[1:] for row in mat]
            continue
        prow = mat.pop(pivot)
        p = prow[0]
        mat = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], prow[1:])]
               for row in mat]
        prev = p
        rank += 1
    return rank


def fraction_rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Fraction Gauss-Jordan, leftmost pivots first."""
    m = [[Fraction(x) for x in row] for row in rows]
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
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def fraction_nullspace(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Kernel basis read off `fraction_rref`, one vector per free column."""
    ncols = len(rows[0])
    red, pivots = fraction_rref(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][free]
        basis.append(vec)
    return basis


def evaluate(poly, point: dict[str, Fraction]) -> Fraction:
    """Value of a package Polynomial, term by term from its raw terms."""
    vals = [Fraction(point[b]) for b in poly.varset]
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        term = Fraction(coeff)
        for idx, exp in mono:
            term *= vals[idx] ** exp
        total += term
    return total


def null_fiber_member(fam, components: Sequence[dict[str, Fraction]]) -> bool:
    """True iff every member of an expanded family vanishes at the point.

    ``components[g]`` is the grade-g component over the base basis; the
    flat point is assembled from the grade maps, not by the package.
    """
    grading = fam.takiff_algebra.grading
    flat = {name: components[grading.grade_of[name]][grading.base_name_of[name]]
            for name in fam.takiff_algebra.basis}
    return all(evaluate(F, flat) == 0 for row in fam.table for F in row)


def n1_characterization(polys, xi0: dict[str, Fraction], xi1: dict[str, Fraction]) -> bool:
    """Every f vanishes at xi1 and annihilates xi0 with its differential there."""
    return all(evaluate(f, xi1) == 0 and
               sum(g * Fraction(xi0[b]) for g, b in zip(gradient_at(f, xi1), f.varset)) == 0
               for f in polys)


def gradient_at(poly, point: dict[str, Fraction]) -> list[Fraction]:
    """Gradient of a package Polynomial, term by term from its raw terms."""
    vals = [Fraction(point[b]) for b in poly.varset]
    grad = [Fraction(0)] * len(vals)
    for mono, coeff in poly.terms.items():
        for idx, exp in mono:
            part = Fraction(coeff) * exp * vals[idx] ** (exp - 1)
            for jdx, f in mono:
                if jdx != idx:
                    part *= vals[jdx] ** f
            grad[idx] += part
    return grad


def kirillov_matrix(algebra, point: dict[str, Fraction]) -> list[list[Fraction]]:
    """B(xi)_{ij} = <xi, [b_i, b_j]> in Fractions, read off the raw bracket table."""
    n = len(algebra.basis)
    vals = [Fraction(point[b]) for b in algebra.basis]
    kirillov = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), coeffs in algebra.brackets.items():
        s = sum((c * vals[k] for k, c in coeffs.items()), Fraction(0))
        kirillov[i][j] += s
        kirillov[j][i] -= s
    return kirillov


def is_regular(algebra, point: dict[str, Fraction], known_index: int) -> bool:
    """True iff rank K(xi) = dim - ind: the coadjoint stabilizer is minimal."""
    return bareiss_rank(kirillov_matrix(algebra, point)) == len(algebra.basis) - known_index


def bracket_elements(algebra, x: dict[int, Fraction],
                     y: dict[int, Fraction]) -> dict[int, Fraction]:
    """[x, y] for sparse index -> coefficient vectors, read off the raw bracket table."""
    out: dict[int, Fraction] = {}
    for i, xi in x.items():
        for j, yj in y.items():
            if i < j:
                coeffs, s = algebra.brackets.get((i, j), {}), xi * yj
            elif i > j:
                coeffs, s = algebra.brackets.get((j, i), {}), -xi * yj
            else:
                continue
            for k, c in coeffs.items():
                out[k] = out.get(k, Fraction(0)) + s * c
    return {k: v for k, v in out.items() if v}


def generated_subalgebra(algebra, gens: Sequence[int]) -> list[dict[int, Fraction]]:
    """Echelon basis of the Lie subalgebra generated by the basis elements ``gens``.

    That subalgebra is the smallest subspace that contains the generators and
    is closed under ad(g) for every generator g (it is spanned by the nested
    brackets [g_1, [g_2, ..., [g_k-1, g_k]]]), so every vector that enlarges
    the span is bracketed with every generator until nothing new appears.
    Rows are kept reduced against each other at their smallest index, in
    Fractions, with the brackets read off the raw bracket table.
    """
    rows: dict[int, dict[int, Fraction]] = {}   # pivot -> row with 1 at its pivot

    def enlarge(v: dict[int, Fraction]) -> dict[int, Fraction] | None:
        v = {k: c for k, c in v.items() if c}
        while v:
            p = min(v)
            if p not in rows:
                v = {k: c / v[p] for k, c in v.items()}
                rows[p] = v
                return v
            c = v[p]
            for k, x in rows[p].items():
                v[k] = v.get(k, Fraction(0)) - c * x
            v = {k: x for k, x in v.items() if x}
        return None

    frontier = [v for v in (enlarge({g: Fraction(1)}) for g in gens) if v is not None]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = enlarge(bracket_elements(algebra, {g: Fraction(1)}, v))
            if w is not None:
                frontier.append(w)
    return list(rows.values())


def bracket(algebra, i: int, j: int) -> dict[int, Fraction]:
    """[b_i, b_j] for basis indices in either orientation."""
    return bracket_elements(algebra, {i: Fraction(1)}, {j: Fraction(1)})


def jacobi_residuals(algebra) -> dict[tuple[int, int, int], dict[int, Fraction]]:
    """Nonzero [a,[b,c]] + [b,[c,a]] + [c,[a,b]] over basis triples a < b < c."""
    n = len(algebra.basis)
    found = {}
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                total: dict[int, Fraction] = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for t, v in bracket_elements(
                            algebra, {x: Fraction(1)}, bracket(algebra, y, z)).items():
                        total[t] = total.get(t, Fraction(0)) + v
                total = {t: v for t, v in total.items() if v}
                if total:
                    found[(a, b, c)] = total
    return found


def derivative_identity_defect(fam) -> tuple[int, int, str] | None:
    """First (i, j, b@(m-j)) where dF_i^j/d(b@(m-j)) is not df_i/db at grade m.

    One `Polynomial.partial` per member and base variable, members eps-power
    major and variables in base order.  Graded names are looked up in the
    grade maps, and the right side moves each index of a base monomial to
    the grade-m name of its variable.  None when the identity holds.
    """
    Lm, base = fam.takiff_algebra, fam.base
    grading = Lm.grading
    m = grading.depth
    name_at = {(grading.base_name_of[v], grading.grade_of[v]): v for v in Lm.basis}
    top = [Lm.basis.index(name_at[(b, m)]) for b in base.algebra.basis]
    for j in range(m + 1):
        for i, f in enumerate(base.polys, start=1):
            F = fam.table[i - 1][j]
            for b in base.algebra.basis:
                want = {tuple(sorted((top[k], e) for k, e in mono)): c
                        for mono, c in f.partial(b).terms.items()}
                name = name_at[(b, m - j)]
                if F.partial(name).terms != want:
                    return i, j, name
    return None


def bracket_values_at(algebra, poly, point: dict[str, Fraction]) -> list[Fraction]:
    """{F, b_t}(xi) for every basis index t at once: grad F(xi) times B(xi).

    B(xi) comes from `kirillov_matrix` above and the gradient is taken term
    by term from the raw term dictionary, so neither the package's symbolic
    bracket nor its evaluation code is exercised.
    """
    n = len(algebra.basis)
    grad = gradient_at(poly, point)
    kirillov = kirillov_matrix(algebra, point)
    return [sum((grad[i] * kirillov[i][t] for i in range(n)), Fraction(0))
            for t in range(n)]


def ad_star(algebra, x: dict[str, Fraction], xi: dict[str, Fraction]) -> dict[str, Fraction]:
    """Coadjoint action <ad*(x)xi, y> = -<xi, [x, y]> for sparse x, complete xi."""
    basis = algebra.basis
    out = {b: Fraction(0) for b in basis}
    for (i, j), coeffs in algebra.brackets.items():
        s = sum((c * Fraction(xi[basis[k]]) for k, c in coeffs.items()), Fraction(0))
        out[basis[j]] -= Fraction(x.get(basis[i], 0)) * s
        out[basis[i]] += Fraction(x.get(basis[j], 0)) * s
    return out


def split_point(algebra, point: dict[str, Fraction]) -> list[dict[str, Fraction]]:
    """A dual point on a truncation as its base components xi_0..xi_m."""
    g = algebra.grading
    comps: list[dict[str, Fraction]] = [{} for _ in range(g.depth + 1)]
    for name in algebra.basis:
        comps[g.grade_of[name]][g.base_name_of[name]] = Fraction(point[name])
    return comps


def split_element(algebra, x: dict[str, Fraction]) -> list[dict[str, Fraction]]:
    """A sparse element of a truncation as its nonzero base parts x_0..x_m."""
    g = algebra.grading
    comps: list[dict[str, Fraction]] = [{} for _ in range(g.depth + 1)]
    for name, c in x.items():
        if c:
            comps[g.grade_of[name]][g.base_name_of[name]] = Fraction(c)
    return comps


class _BaseBlock:
    """The grade-0 subalgebra of a truncation: basis names and bracket table."""

    def __init__(self, algebra):
        g = algebra.grading
        grade0 = [i for i, b in enumerate(algebra.basis) if g.grade_of[b] == 0]
        pos = {i: p for p, i in enumerate(grade0)}
        self.basis = tuple(g.base_name_of[algebra.basis[i]] for i in grade0)
        self.brackets = {(pos[i], pos[j]): {pos[k]: c for k, c in coeffs.items()}
                         for (i, j), coeffs in algebra.brackets.items()
                         if i in pos and j in pos}


def coadjoint_apply(algebra, x: dict[str, Fraction],
                    components: list[dict[str, Fraction]]) -> list[dict[str, Fraction]]:
    """Componentwise route: (ad*(x)xi)_t = sum_i ad*(x_i) xi_{t+i} on the base."""
    base = _BaseBlock(algebra)
    xs = split_element(algebra, x)
    m = len(components) - 1
    out = []
    for t in range(m + 1):
        acc = {b: Fraction(0) for b in base.basis}
        for i in range(m + 1 - t):
            if xs[i]:
                for b, v in ad_star(base, xs[i], components[t + i]).items():
                    acc[b] += v
        out.append(acc)
    return out


def coadjoint_apply_generic(algebra, x: dict[str, Fraction],
                            components: list[dict[str, Fraction]]) -> list[dict[str, Fraction]]:
    """Structure-constant route: flatten, act on the truncation's dual, split back."""
    g = algebra.grading
    flat = {name: Fraction(components[g.grade_of[name]][g.base_name_of[name]])
            for name in algebra.basis}
    return split_point(algebra, ad_star(algebra, x, flat))
