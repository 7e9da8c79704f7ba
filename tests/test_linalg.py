from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from takiffalg import linalg, sampling
from takiffalg.liealg import kirillov_matrix

from oracles import bareiss_rank, fraction_nullspace, fraction_rref, naive_rank
from test_liealg import _bracket_tables

frac_st = st.fractions(min_value=-8, max_value=8, max_denominator=6)
# ints and Fractions mixed, with zeros common enough for rank deficiency
mixed_st = st.one_of(st.just(0), st.integers(-9, 9), frac_st)


def matrix_st(max_n=5, entries=frac_st):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_n).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=m, max_size=m),
                min_size=n, max_size=n)))


def _int_when_integral(rows):
    return all(type(x) is int if x.denominator == 1 else type(x) is Fraction
               for row in rows for x in row)


class TestRank:
    def test_known_values(self):
        I3 = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        assert linalg.rank(I3) == 3
        assert linalg.rank([[Fraction(0)] * 4 for _ in range(3)]) == 0
        assert linalg.rank([]) == 0
        singular = [[Fraction(v) for v in row]
                    for row in ([1, 2, 3], [4, 5, 6], [7, 8, 9])]
        assert linalg.rank(singular) == 2

    @given(matrix_st())
    def test_against_gaussian_oracle(self, mat):
        assert linalg.rank(mat) == naive_rank(mat) == bareiss_rank(mat)

    def test_seeded_larger_integer_matrices(self):
        for trial in range(30):
            r = sampling.rng(7, 31, trial)
            n, m = r.randint(6, 12), r.randint(6, 12)
            mat = [[Fraction(r.randint(-4, 4)) if r.random() < 0.4 else Fraction(0)
                    for _ in range(m)] for _ in range(n)]
            assert linalg.rank(mat) == naive_rank(mat) == bareiss_rank(mat)

    def test_skew_symmetric_rank_is_even(self):
        for trial in range(20):
            r = sampling.rng(7, 32, trial)
            n = r.randint(2, 7)
            a = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = Fraction(r.randint(-5, 5))
                    a[i][j], a[j][i] = v, -v
            assert linalg.rank(a) % 2 == 0


@st.composite
def _low_rank_skew(draw, n):
    """(X S X^T, r) for an n x n skew matrix of any even rank r from 0 to n.

    X is n x r of rank r: the identity on r rows drawn at random, random
    integers on the others.  S is r x r skew with nonzero entries c_t at
    (2t, 2t+1), so it is nondegenerate and X S X^T has rank exactly r.
    """
    r = 2 * draw(st.integers(0, n // 2))
    ints = st.integers(-4, 4)
    rows = ([[int(i == j) for j in range(r)] for i in range(r)]
            + [[draw(ints) for _ in range(r)] for _ in range(n - r)])
    X = [rows[i] for i in draw(st.permutations(range(n)))]
    S = [[0] * r for _ in range(r)]
    for t in range(0, r, 2):
        c = draw(ints.filter(bool))
        S[t][t + 1], S[t + 1][t] = c, -c
    XS = [[sum(X[a][c] * S[c][b] for c in range(r)) for b in range(r)] for a in range(n)]
    return [[sum(XS[a][c] * X[b][c] for c in range(r)) for b in range(n)] for a in range(n)], r


def _skew_from_upper(n, upper):
    """The skew n x n matrix with the strict upper triangle ``upper``, row by row."""
    mat = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = next(it)
            mat[j][i] = -mat[i][j]
    return mat


def _sympy_rank(rows) -> int:
    return sympy.Matrix(rows).rank() if rows else 0


class TestSkewRank:
    """`skew_rank` against `rank` and against sympy as an independent oracle."""

    @pytest.mark.parametrize("n", range(9))
    @given(data=st.data())
    def test_integer_skew_matrices(self, n, data):
        mat, r = data.draw(_low_rank_skew(n))
        assert linalg.skew_rank(mat) == linalg.rank(mat) == _sympy_rank(mat) == r

    @pytest.mark.parametrize("n", range(9))
    @given(data=st.data(), q=st.fractions(min_value=-7, max_value=7, max_denominator=12)
           .filter(bool))
    def test_divided_by_a_common_rational(self, n, data, q):
        mat, r = data.draw(_low_rank_skew(n))
        scaled = [[x / q for x in row] for row in mat]
        assert linalg.skew_rank(scaled) == linalg.rank(scaled) == _sympy_rank(scaled) == r

    @given(st.integers(1, 10).flatmap(lambda n: st.lists(
        st.sampled_from([0, 0, 0, 0, 1, -2, Fraction(3, 4)]),
        min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
            lambda upper: _skew_from_upper(n, upper))))
    def test_sparse_skew_matrices(self, mat):
        # mostly zeros: rows with one nonzero entry, which are peeled, are common
        assert linalg.skew_rank(mat) == linalg.rank(mat) == _sympy_rank(mat)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_paths_and_stars_peel_to_their_matchings(self, n):
        path = _skew_from_upper(n, [int(j == i + 1) for i in range(n) for j in range(i + 1, n)])
        star = _skew_from_upper(n, [int(i == 0) for i in range(n) for j in range(i + 1, n)])
        assert linalg.skew_rank(path) == linalg.rank(path) == n - n % 2
        assert linalg.skew_rank(star) == linalg.rank(star) == (2 if n > 1 else 0)

    def test_empty_and_one_by_one(self):
        assert linalg.skew_rank([]) == 0
        assert linalg.skew_rank([[0]]) == 0
        assert linalg.skew_rank([[Fraction(0)]]) == 0

    @given(_bracket_tables(), st.data())
    def test_kirillov_matrices_at_integer_and_rational_points(self, L, data):
        for coords in (st.integers(-9, 9),
                       st.fractions(min_value=-5, max_value=5, max_denominator=7)):
            point = {b: data.draw(coords) for b in L.basis}
            mat = kirillov_matrix(L, point)
            assert linalg.skew_rank(mat) == linalg.rank(mat) == _sympy_rank(mat)

    def test_rows_with_different_denominators(self):
        # Pf = a01 a23 - a02 a13 + a03 a12 = -1 + 1/2 + 0, so the rank is 4.
        # Clearing row by row scales rows 1 and 3 by 2: the skew matrix of
        # that copy's upper triangle has Pf = -1 + 1 + 0 and rank 2.
        half = Fraction(1, 2)
        mat = [[0, 1, 1, 1],
               [-1, 0, 0, -half],
               [-1, 0, 0, -1],
               [-1, half, 1, 0]]
        assert linalg.skew_rank(mat) == linalg.rank(mat) == _sympy_rank(mat) == 4
        rowwise = linalg._cleared_int_rows(mat)
        upper = [[rowwise[min(i, j)][max(i, j)] * (1 if i < j else -1) if i != j else 0
                  for j in range(4)] for i in range(4)]
        assert linalg.rank(upper) == 2

    def test_input_rows_are_not_changed(self):
        mat = [[0, Fraction(1, 2), 3, 0], [Fraction(-1, 2), 0, 1, 2],
               [-3, -1, 0, 5], [0, -2, -5, 0]]
        before = [row[:] for row in mat]
        linalg.skew_rank(mat)
        assert mat == before


class TestNullspace:
    @given(matrix_st())
    def test_kernel_vectors_annihilate(self, mat):
        ncols = len(mat[0])
        basis = linalg.nullspace(mat)
        assert len(basis) == ncols - linalg.rank(mat)
        for vec in basis:
            for row in mat:
                assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_kernel_is_deterministic_and_frozen(self):
        mat = [[Fraction(1), Fraction(2), Fraction(3)],
               [Fraction(2), Fraction(4), Fraction(6)]]
        assert linalg.nullspace(mat) == [
            [Fraction(-2), Fraction(1), Fraction(0)],
            [Fraction(-3), Fraction(0), Fraction(1)],
        ]

    def test_empty_matrix_needs_ncols(self):
        assert len(linalg.nullspace([], ncols=3)) == 3
        with pytest.raises(linalg.LinearAlgebraError):
            linalg.nullspace([])


class TestRrefSolve:
    @given(matrix_st())
    def test_rref_pivots_are_unit_columns(self, mat):
        red, pivots = linalg.rref(mat)
        for r, pc in enumerate(pivots):
            assert red[r][pc] == 1
            for rr in range(len(red)):
                if rr != r:
                    assert red[rr][pc] == 0


class TestAgainstFractionOracle:
    """The fraction-free `rref` and `nullspace` against Fraction Gauss-Jordan."""

    @given(matrix_st(6, mixed_st))
    def test_rref_values_and_pivots(self, mat):
        red, pivots = linalg.rref(mat)
        want, want_pivots = fraction_rref(mat)
        assert pivots == want_pivots
        assert red == want
        assert _int_when_integral(red)

    @given(matrix_st(6, mixed_st))
    def test_nullspace_vectors(self, mat):
        basis = linalg.nullspace(mat)
        assert basis == fraction_nullspace(mat)
        assert _int_when_integral(basis)

    def test_input_rows_are_not_changed(self):
        mat = [[2, Fraction(1, 2), 0], [4, 1, 3]]
        linalg.rref(mat)
        assert mat == [[2, Fraction(1, 2), 0], [4, 1, 3]]
