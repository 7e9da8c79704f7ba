"""Independent reference implementations used only to cross-check the package.

Nothing here imports the modules under test beyond plain data types, and the
algorithms are deliberately the naive ones: truncated dual-number arithmetic
coefficient by coefficient, rank by plain fraction Gaussian elimination, and
Poisson brackets with basis elements as a gradient times the Kirillov matrix.
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


def bracket_values_at(algebra, poly, point: dict[str, Fraction]) -> list[Fraction]:
    """{F, b_t}(xi) for every basis index t at once: grad F(xi) times B(xi).

    B(xi)_{it} = <xi, [b_i, b_t]> is read off the raw bracket table, and the
    gradient is taken term by term from the raw term dictionary, so neither
    the package's symbolic bracket nor its evaluation code is exercised.
    """
    basis = algebra.basis
    n = len(basis)
    vals = [Fraction(point[b]) for b in basis]
    grad = [Fraction(0)] * n
    for mono, coeff in poly.terms.items():
        for idx, exp in mono:
            part = Fraction(coeff) * exp * vals[idx] ** (exp - 1)
            for jdx, f in mono:
                if jdx != idx:
                    part *= vals[jdx] ** f
            grad[idx] += part
    kirillov = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), coeffs in algebra.brackets.items():
        s = sum((c * vals[k] for k, c in coeffs.items()), Fraction(0))
        kirillov[i][j] += s
        kirillov[j][i] -= s
    return [sum((grad[i] * kirillov[i][t] for i in range(n)), Fraction(0))
            for t in range(n)]
