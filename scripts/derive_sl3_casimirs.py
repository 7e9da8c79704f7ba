#!/usr/bin/env python3
"""Derive the sl3 structure constants and Casimir polynomials from matrices.

The catalog ships the sl3 bracket table and its two basic invariants as
literal data.  This script regenerates all of it from first principles:

  * structure constants from commutators of explicit 3x3 matrices,
  * the invariants as trace powers tr(Y^2), tr(Y^3) of the dual-coordinate
    matrix Y, cleared to integer coefficients of content 1,

and then checks the results (Jacobi, exact invariance, homogeneity, index,
magic number) with the library.  Run it whenever the catalog entry needs to
be re-justified; paste the printed table and polynomial strings into
catalog.py if they ever change.

Pairing convention: a dual point xi is identified with a traceless matrix Y
through <A, xi> = tr(A Y), so the coordinate function of the matrix unit
E_ij is Y_ji and the diagonal of Y is expressed through the h1, h2
coordinates with denominator 3.
"""

from fractions import Fraction

from takiffalg.liealg import (InvariantSet, LieAlgebra, index, is_symmetric_invariant,
                              magic_from_index, validate)
from takiffalg.polyring import Polynomial

BASIS = ("h1", "h2", "e12", "e23", "e13", "e21", "e32", "e31")


def unit(i: int, j: int) -> list[list[Fraction]]:
    m = [[Fraction(0)] * 3 for _ in range(3)]
    m[i][j] = Fraction(1)
    return m


def mat_sub(a, b):
    return [[a[i][j] - b[i][j] for j in range(3)] for i in range(3)]


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def basis_matrices() -> dict[str, list[list[Fraction]]]:
    return {
        "h1": mat_sub(unit(0, 0), unit(1, 1)),
        "h2": mat_sub(unit(1, 1), unit(2, 2)),
        "e12": unit(0, 1), "e23": unit(1, 2), "e13": unit(0, 2),
        "e21": unit(1, 0), "e32": unit(2, 1), "e31": unit(2, 0),
    }


def coords_of(m) -> dict[str, Fraction]:
    """Coordinates of a traceless matrix in the chosen basis."""
    out = {"h1": m[0][0], "h2": m[0][0] + m[1][1]}
    for name, (i, j) in (("e12", (0, 1)), ("e23", (1, 2)), ("e13", (0, 2)),
                         ("e21", (1, 0)), ("e32", (2, 1)), ("e31", (2, 0))):
        out[name] = m[i][j]
    return {k: v for k, v in out.items() if v}


def derive_structure_constants():
    mats = basis_matrices()
    entries = {}
    for i, a in enumerate(BASIS):
        for j in range(i + 1, len(BASIS)):
            b = BASIS[j]
            comm = mat_sub(mat_mul(mats[a], mats[b]), mat_mul(mats[b], mats[a]))
            coords = coords_of(comm)
            if coords:
                entries[(i, j)] = {BASIS.index(k): v for k, v in coords.items()}
    return entries


def dual_matrix() -> list[list[Polynomial]]:
    """Y(xi) with tr(A Y) recovering the coordinate functions."""
    v = {b: Polynomial.variable(BASIS, b) for b in BASIS}
    third = Fraction(1, 3)
    return [
        [(2 * v["h1"] + v["h2"]) * third, v["e21"], v["e31"]],
        [v["e12"], (v["h2"] - v["h1"]) * third, v["e32"]],
        [v["e13"], v["e23"], (-1) * (v["h1"] + 2 * v["h2"]) * third],
    ]


def poly_mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(3)),
                 Polynomial.zero(BASIS)) for j in range(3)] for i in range(3)]


def trace(a) -> Polynomial:
    return a[0][0] + a[1][1] + a[2][2]


def integer_normalized(p: Polynomial) -> Polynomial:
    """Clear denominators and divide by the coefficient gcd."""
    from math import gcd, lcm
    denoms = lcm(*(c.denominator for c in p.terms.values()))
    cleared = p * Fraction(denoms)
    g = gcd(*(abs(int(c)) for c in cleared.terms.values()))
    return cleared * Fraction(1, g)


def main() -> None:
    entries = derive_structure_constants()
    L = LieAlgebra.create("sl3", BASIS, entries)
    assert validate(L).summary == "PASS"

    print("# structure constants (pair -> target: coefficient)")
    for (i, j), coeffs in sorted(entries.items()):
        rhs = ", ".join(f"{BASIS[k]}: {c}" for k, c in sorted(coeffs.items()))
        print(f"({BASIS[i]}, {BASIS[j]}) -> {rhs}")

    Y = dual_matrix()
    Y2 = poly_mat_mul(Y, Y)
    f2 = integer_normalized(trace(Y2))
    f3 = integer_normalized(trace(poly_mat_mul(Y2, Y)))
    print("\n# degree-2 Casimir (integer content 1)")
    print(f2)
    print("\n# degree-3 Casimir (integer content 1)")
    print(f3)

    for f in (f2, f3):
        assert f.is_homogeneous()
        assert is_symmetric_invariant(L, f), f"not invariant: {f}"
    InvariantSet(L, (f2, f3))
    assert (f2.degree(), f3.degree()) == (2, 3)
    ind = index(L)
    assert ind == 2 and magic_from_index(L, ind) == 5
    print("\nall checks passed: Jacobi, invariance, degrees (2, 3), index 2, magic 5")


if __name__ == "__main__":
    main()
