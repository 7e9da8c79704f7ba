"""Independent reference implementations used only to cross-check the package.

Nothing here imports the modules under test beyond plain data types, and the
algorithms are deliberately the naive ones: truncated dual-number arithmetic
coefficient by coefficient, rank by plain fraction Gaussian elimination,
Kirillov matrices and Jacobi residuals in Fractions straight from the bracket
table, Poisson brackets with basis elements as a gradient times the Kirillov
matrix, and the coadjoint action of a truncated current algebra by two routes, one
through its own structure constants and one componentwise through the base
algebra's.  Algebras, polynomials and gradings are read only through their
raw data: basis names, bracket tables, term dictionaries and grade maps.
"""

from __future__ import annotations

from fractions import Fraction
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


def jacobi_residuals(algebra) -> dict[tuple[int, int, int], dict[int, Fraction]]:
    """Nonzero [a,[b,c]] + [b,[c,a]] + [c,[a,b]] over basis triples a < b < c."""
    n = len(algebra.basis)

    def br(x: dict[int, Fraction], y: dict[int, Fraction]) -> dict[int, Fraction]:
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
        return out

    found = {}
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                total: dict[int, Fraction] = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    inner = br({y: Fraction(1)}, {z: Fraction(1)})
                    for t, v in br({x: Fraction(1)}, inner).items():
                        total[t] = total.get(t, Fraction(0)) + v
                total = {t: v for t, v in total.items() if v}
                if total:
                    found[(a, b, c)] = total
    return found


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
