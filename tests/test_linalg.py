from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from takiffalg import linalg, sampling

from oracles import bareiss_rank, fraction_nullspace, fraction_rref, naive_rank

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
