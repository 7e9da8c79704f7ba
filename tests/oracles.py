"""Independent reference implementations used only to cross-check the package.

Nothing here imports the modules under test beyond plain data types, and the
algorithms are deliberately the naive ones: seeded component draws one
`randint` at a time, truncated dual-number arithmetic
coefficient by coefficient, rank, reduced row echelon form and kernels by
plain fraction Gaussian elimination, rank by textbook Bareiss elimination
on integers, regularity of a dual point from that rank, brackets of
elements, Kirillov matrices and Jacobi residuals in Fractions straight from
the bracket table, the Poisson bracket of two polynomials term by term from
their partials and the bracket table, Poisson brackets with basis elements
as a gradient times the Kirillov matrix, and the coadjoint action of a truncated current algebra by two routes, one
through its own structure constants and one componentwise through the base
algebra's; the Takiff weight of every term of an expanded family, and its
derivative identity one variable at a time, and its degree sum, every
member's degree read off its terms; and membership in the
depth-one null fiber N<1>, every family member evaluated term by term,
beside the base-level characterization it is certified to equal.  Algebras and polynomials are read only through
their raw data: basis names, bracket tables and term dictionaries.  The
grade and base name of a truncation's basis element are parsed from its
name `b@j`, never taken from the package's grading or basis order.  A
partial derivative (`partial`, the derivative identity's and the Poisson
bracket's per-variable route) is read off the term dictionary exponent by
exponent; only its result is built as a polynomial.  The byte oracle of a
report writes its document with `json.dumps`, witnesses made JSON-safe by the
package's `report.jsonable`, which defines what a witness serializes to.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from takiffalg.report import jsonable


def graded_parts(name: str) -> tuple[str, int]:
    """(b, j) of the graded name `b@j`; b may itself be graded."""
    base, grade = name.rsplit("@", 1)
    return base, int(grade)


def _depth(algebra) -> int:
    return max(graded_parts(name)[1] for name in algebra.basis)


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


def random_components(names: Sequence[str], depth: int, r: random.Random,
                      bound: int = 1000) -> list[dict[str, int]]:
    """depth+1 random points over ``names``, drawn one `randint` per coordinate.

    The default bound is the package's `sampling.DEFAULT_BOUND`.  Component
    j holds draws j*n .. (j+1)*n - 1 of the stream, in the order of ``names``.
    """
    return [{b: r.randint(-bound, bound) for b in names} for _ in range(depth + 1)]


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
    flat point is assembled from the parsed names, not by the package.
    """
    flat = {}
    for name in fam.algebra.basis:
        b, g = graded_parts(name)
        flat[name] = components[g][b]
    return all(evaluate(F, flat) == 0 for F in fam.polys)


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


def partial(poly, name: str):
    """d poly / d name, term by term, as a polynomial over the same variables.

    Each monomial's exponents are read into a dict, the one of ``name``
    lowered, and equal monomials summed; a name outside the variables
    raises ValueError.
    """
    k = poly.varset.index(name)
    out: dict[tuple, Fraction] = {}
    for mono, c in poly.terms.items():
        exps = dict(mono)
        e = exps.get(k, 0)
        if e:
            exps[k] = e - 1
            key = tuple(sorted((i, x) for i, x in exps.items() if x))
            out[key] = out.get(key, Fraction(0)) + c * e
    return type(poly)(poly.varset, out)


def _mono_product(*monos) -> tuple:
    """The product of raw monomials ((index, exponent), ...), indices increasing."""
    exps: dict[int, int] = {}
    for mono in monos:
        for i, e in mono:
            exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def poisson_bracket(algebra, f, g) -> dict[tuple, Fraction]:
    """{f, g} = sum over i < j of [b_i, b_j] (df/db_i dg/db_j - df/db_j dg/db_i).

    The raw term dictionary of the bracket: monomials ((index, exponent),
    ...) over the algebra's basis with increasing indices, the layout of
    `Polynomial.terms`, and no zero coefficient.  [b_i, b_j] is read off
    the raw bracket table as a linear form, the partials come from
    `partial`, and the products are multiplied out term by term,
    so none of the package's bracket or arithmetic code is exercised.
    Each partial is taken once per basis element, before the table loop.
    """
    dfs = [partial(f, b).terms for b in algebra.basis]
    dgs = [partial(g, b).terms for b in algebra.basis]
    out: dict[tuple, Fraction] = {}
    for (i, j), coeffs in algebra.brackets.items():
        for a, b, sign in ((i, j, 1), (j, i, -1)):
            df, dg = dfs[a], dgs[b]
            for k, c in coeffs.items():
                for m1, c1 in df.items():
                    for m2, c2 in dg.items():
                        mono = _mono_product(m1, m2, ((k, 1),))
                        out[mono] = out.get(mono, Fraction(0)) + sign * c * c1 * c2
    return {mono: c for mono, c in out.items() if c}


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


def _member(fam, i: int, j: int):
    """F_i^j of a family's flat, eps-power major member tuple."""
    return fam.polys[j * len(fam.base.polys) + i - 1]


def weight_defect(fam) -> tuple[int, int, str] | None:
    """First (i, j, monomial) where a term of F_i^j has Takiff weight other than j.

    b@g weighs m - g, with g parsed from the name; members eps-power major,
    terms in the order of their term dictionary.  The monomial is written
    as its factors `name` or `name^e` joined by `*`, in variable order.
    ``fam`` is anything with the fields `algebra`, `base` and `polys` of
    an expanded family, such as members the package refuses; F_i^j is
    ``polys[j*l + i - 1]``.  None when every term has the weight of its
    eps-power.
    """
    Lm = fam.algebra
    m = _depth(Lm)
    for j in range(m + 1):
        for i in range(1, len(fam.base.polys) + 1):
            for mono in _member(fam, i, j).terms:
                names = [(Lm.basis[v], e) for v, e in mono]
                if sum((m - graded_parts(name)[1]) * e for name, e in names) != j:
                    return i, j, "*".join(name if e == 1 else f"{name}^{e}"
                                          for name, e in names)
    return None


def derivative_identity_defect(fam) -> tuple[int, int, str] | None:
    """First (i, j, b@(m-j)) where dF_i^j/d(b@(m-j)) is not df_i/db at grade m.

    One `partial` per member and base variable, members eps-power
    major and variables in base order.  Graded names are found by parsing
    the basis names, and the right side moves each index of a base monomial
    to the grade-m name of its variable.  ``fam`` is as for
    `weight_defect`.  None when the identity holds.
    """
    Lm, base = fam.algebra, fam.base
    m = _depth(Lm)
    name_at = {graded_parts(v): v for v in Lm.basis}
    top = [Lm.basis.index(name_at[(b, m)]) for b in base.algebra.basis]
    for j in range(m + 1):
        for i, f in enumerate(base.polys, start=1):
            F = _member(fam, i, j)
            for b in base.algebra.basis:
                want = {tuple(sorted((top[k], e) for k, e in mono)): c
                        for mono, c in partial(f, b).terms.items()}
                name = name_at[(b, m - j)]
                if partial(F, name).terms != want:
                    return i, j, name
    return None


def family_degree_sum(fam) -> int:
    """Sum of the degrees of the members of an expanded family, term by term.

    A member's degree is the largest exponent sum over the monomials of its
    term dictionary; a zero member has none and raises ValueError.  ``fam``
    is as for `weight_defect`.
    """
    return sum(max(sum(e for _, e in mono) for mono in F.terms)
               for F in fam.polys)


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
    comps: list[dict[str, Fraction]] = [{} for _ in range(_depth(algebra) + 1)]
    for name in algebra.basis:
        b, g = graded_parts(name)
        comps[g][b] = Fraction(point[name])
    return comps


def split_element(algebra, x: dict[str, Fraction]) -> list[dict[str, Fraction]]:
    """A sparse element of a truncation as its nonzero base parts x_0..x_m."""
    comps: list[dict[str, Fraction]] = [{} for _ in range(_depth(algebra) + 1)]
    for name, c in x.items():
        if c:
            b, g = graded_parts(name)
            comps[g][b] = Fraction(c)
    return comps


class _BaseBlock:
    """The grade-0 subalgebra of a truncation: basis names and bracket table."""

    def __init__(self, algebra):
        parts = [graded_parts(name) for name in algebra.basis]
        grade0 = [i for i, (_, g) in enumerate(parts) if g == 0]
        pos = {i: p for p, i in enumerate(grade0)}
        self.basis = tuple(parts[i][0] for i in grade0)
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
    flat = {}
    for name in algebra.basis:
        b, g = graded_parts(name)
        flat[name] = Fraction(components[g][b])
    return split_point(algebra, ad_star(algebra, x, flat))


def report_json(rep) -> str:
    """A report's bytes by the plain route: its document through `json.dumps`.

    The witnesses go through `report.jsonable`, the data model the report
    bytes are defined by, and the document through the standard library's
    indented encoder with sorted keys.
    """
    doc = {
        "label": rep.label,
        "checks": [{"name": c.name, "paper_ref": c.paper_ref, "status": c.status,
                    "witness": jsonable(c.witness), "seed": c.seed, "ms": 0}
                   for c in rep.checks],
        "summary": rep.summary,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
