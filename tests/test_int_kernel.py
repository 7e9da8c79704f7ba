"""The integer evaluation kernel against the Fraction oracles.

`Polynomial.evaluate`/`gradient_at`, `kirillov_matrix`, `validate` and
`linalg.rank` run on integers over a common denominator.  These tests compare
them with the naive Fraction routes in `oracles.py` where that denominator is
not 1 (rational coefficients and structure constants) and at integral and
rational points, pin the result types, and check that floats are refused at
every point boundary.  `differential_matrix` returns integer rows that are
positive multiples of the exact gradients; they are compared with the
oracle's gradients up to that scaling, and by the ranks and kernels they
give.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, strategies as st

from takiffalg import catalog, liealg, linalg, nilfiber, sampling
from takiffalg.liealg import (
    LieAlgebra,
    check_point,
    differential_matrix,
    kirillov_matrix,
    validate,
)
from takiffalg.polyring import MissingAssignmentError, Polynomial, parse_poly
from takiffalg.raistauvel import build_family
from takiffalg.takiff import flatten_point, takiff

import oracles
from oracles import EpsValue, eval_poly_eps, naive_rank, random_components

VS = ("w", "x", "y", "z")

frac_st = st.fractions(min_value=-6, max_value=6, max_denominator=9)
mono_st = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=3).map(
    lambda pairs: tuple(sorted(dict(pairs).items())))
rational_poly_st = st.dictionaries(mono_st, frac_st, min_size=1, max_size=6).map(
    lambda terms: Polynomial(VS, terms)).filter(
    lambda p: any(c.denominator != 1 for c in p.terms.values()))
int_poly_st = st.dictionaries(mono_st, st.integers(-6, 6), min_size=1, max_size=6).map(
    lambda terms: Polynomial(VS, terms))
int_point_st = st.fixed_dictionaries({v: st.integers(-30, 30) for v in VS})
rational_point_st = st.fixed_dictionaries({v: frac_st for v in VS})


def _exact_type(v) -> bool:
    """int exactly when integral, Fraction otherwise."""
    return type(v) is int if Fraction(v).denominator == 1 else type(v) is Fraction


class TestPolynomialKernel:
    @given(rational_poly_st, int_point_st | rational_point_st)
    def test_evaluate_matches_dual_number_oracle(self, p, pt):
        want = eval_poly_eps(p, {v: EpsValue.const(0, x) for v, x in pt.items()}).coeffs[0]
        got = p.evaluate(pt)
        assert got == want and _exact_type(got)

    @given(rational_poly_st, int_point_st | rational_point_st)
    def test_gradient_matches_oracle(self, p, pt):
        got = p.gradient_at(pt)
        assert got == oracles.gradient_at(p, pt)
        assert all(_exact_type(g) for g in got)

    @given(int_poly_st, int_point_st | rational_point_st)
    def test_integer_coefficients_match_the_oracles(self, p, pt):
        # denominator 1: the sums come back as they are when they are ints
        value = p.evaluate(pt)
        want = eval_poly_eps(p, {v: EpsValue.const(0, x) for v, x in pt.items()}).coeffs[0]
        assert value == want
        grad = p.gradient_at(pt)
        assert grad == oracles.gradient_at(p, pt)
        assert _exact_type(value) and all(_exact_type(g) for g in grad)

    def test_integral_fraction_sums_become_int(self):
        # x*y*z at (1/2, 2, 3): the value and d/dz sum to integral Fractions
        p = Polynomial(VS, {((1, 1), (2, 1), (3, 1)): 1})
        pt = {"w": 0, "x": Fraction(1, 2), "y": 2, "z": 3}
        assert p.evaluate(pt) == 3 and type(p.evaluate(pt)) is int
        grad = p.gradient_at(pt)
        assert grad == [0, 6, Fraction(3, 2), 1]
        assert [type(g) for g in grad] == [int, int, Fraction, int]


def _rescaled(entry_name: str, scales: list[Fraction],
              corrupt: tuple[int, Fraction] | None) -> LieAlgebra:
    """The catalog algebra in the basis b_i / s_i, optionally with one constant changed.

    [b_i/s_i, b_j/s_j] = sum_k c_ij^k s_k/(s_i s_j) (b_k/s_k), so the rescaled
    algebra satisfies Jacobi and has rational structure constants.
    """
    L = catalog.load(entry_name).algebra
    n = L.dim
    s = [scales[i % len(scales)] for i in range(n)]
    entries = {(i, j): {k: c * s[k] / (s[i] * s[j]) for k, c in coeffs.items()}
               for (i, j), coeffs in L.brackets.items()}
    if corrupt is not None:
        pos, delta = corrupt
        pair = sorted(entries)[pos % len(entries)]
        k = min(entries[pair])
        entries[pair][k] += delta
    return LieAlgebra.create(f"{entry_name}-rescaled", L.basis, entries)


scales_st = st.lists(frac_st.filter(bool), min_size=1, max_size=4)
corrupt_st = st.none() | st.tuples(st.integers(0, 50), frac_st.filter(bool))
algebra_st = st.builds(_rescaled, st.sampled_from(["sl2", "heis1", "sl3", "slnV2"]),
                       scales_st, corrupt_st)


class TestLieKernel:
    @given(algebra_st, st.data())
    def test_kirillov_matrix_and_rank_match_oracle(self, L, data):
        pt = data.draw(st.fixed_dictionaries(
            {b: st.integers(-20, 20) | frac_st for b in L.basis}))
        want = oracles.kirillov_matrix(L, pt)
        got = kirillov_matrix(L, pt)
        assert got == want
        assert all(_exact_type(v) for row in got for v in row)
        assert linalg.rank(got) == naive_rank(want)

    @given(algebra_st)
    def test_validate_matches_oracle_residuals(self, L):
        want = oracles.jacobi_residuals(L)
        (check,) = validate(L).checks
        assert check.status == ("FAIL" if want else "PASS")
        assert check.witness["violation_count"] == len(want)
        expected = [{"triple": [L.basis[t] for t in triple],
                     "residual": {L.basis[k]: v for k, v in sorted(res.items())}}
                    for triple, res in sorted(want.items())][:5]
        assert check.witness["violations"] == expected
        for violation in check.witness["violations"]:
            assert all(type(v) is Fraction for v in violation["residual"].values())

    def test_validate_residual_with_a_third(self):
        L = LieAlgebra.create("third", ("e", "h", "f"), {
            (0, 1): {0: -2}, (0, 2): {0: Fraction(1, 3), 1: 1}, (1, 2): {2: -2}})
        (check,) = validate(L).checks
        assert check.status == "FAIL"
        assert check.witness["violations"][0]["residual"] == {"e": Fraction(-2, 3)}


mixed_st = st.integers(-8, 8) | frac_st | st.just(0)


def mixed_matrix_st(max_n=7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_n).flatmap(
            lambda m: st.lists(st.lists(mixed_st, min_size=m, max_size=m),
                               min_size=n, max_size=n)))


class TestRankKernel:
    @given(mixed_matrix_st())
    def test_mixed_int_and_fraction_rows(self, mat):
        assert linalg.rank(mat) == naive_rank(mat)

    def test_dependent_rows_of_large_integers(self):
        for trial in range(20):
            r = sampling.rng(11, 5, trial)
            base = [[r.randint(-10**12, 10**12) for _ in range(9)] for _ in range(4)]
            combos = [[r.randint(-3, 3) for _ in base] for _ in range(4)]
            rows = base + [[sum(c * row[j] for c, row in zip(cs, base)) for j in range(9)]
                           for cs in combos]
            rows = rows[::2] + rows[1::2]
            assert linalg.rank(rows) == naive_rank(rows) == 4


class TestIntegerResults:
    """On catalog data at sampled points nothing falls back to Fraction."""

    @pytest.mark.parametrize("name", ["sl2", "sl3", "heis2", "slnV2", "slnV3"])
    def test_gradients_and_kirillov_matrices_are_int(self, name):
        entry = catalog.load(name)
        L, fs = entry.algebra, entry.invariants
        fam = build_family(fs, 2)
        for t in range(3):
            r = sampling.rng(5, 99, t)
            pt = sampling.random_coords(L.basis, r)
            assert all(type(v) is int for v in pt.values())
            for f in fs.polys:
                assert all(type(g) is int for g in f.gradient_at(pt))
                assert type(f.evaluate(pt)) is int
            assert all(type(v) is int for row in kirillov_matrix(L, pt) for v in row)
            flat = flatten_point(fam.algebra, random_components(L.basis, 2, r))
            assert all(type(v) is int for v in flat.values())
            for _, _, F in fam.members():
                assert all(type(g) is int for g in F.gradient_at(flat))
            assert all(type(v) is int
                       for row in kirillov_matrix(fam.algebra, flat) for v in row)


@cache
def _invariant_polys(name: str, m: int) -> tuple[Polynomial, ...]:
    """The catalog invariants of `name` (m = 0) or its depth-m family members."""
    entry = catalog.load(name)
    if m == 0:
        return entry.invariants.polys
    return build_family(entry.invariants, m).polys


_DIFFERENTIAL_CASES = [(name, m) for name in ("sl2", "heis1", "sl3", "slnV2")
                       for m in (0, 1, 2)]
# a non-homogeneous member: its gradient terms have 0, 1 and 2 factors
_UNEVEN = parse_poly("x^3 + 1/2*x*y - 3*z + 1/3 + 1/5*w*z", VS)


def _is_positive_multiple(row, exact) -> bool:
    k = next((k for k, g in enumerate(exact) if g), None)
    if k is None:
        return not any(row)
    scale = Fraction(row[k], exact[k])
    return scale > 0 and all(r == scale * g for r, g in zip(row, exact))


def _assert_rows_scale_the_gradients(polys, pt) -> None:
    rows = differential_matrix(polys, pt)
    exact = [oracles.gradient_at(f, pt) for f in polys]
    assert all(type(x) is int for row in rows for x in row)
    assert all(_is_positive_multiple(row, g) for row, g in zip(rows, exact))
    assert linalg.rank(rows) == linalg.rank(exact)
    assert linalg.nullspace(rows) == linalg.nullspace(exact)


class TestDifferentialRows:
    """Integer differential rows: positive multiples of the exact gradients."""

    @given(st.sampled_from(_DIFFERENTIAL_CASES), st.booleans(), st.data())
    def test_catalog_rows_scale_the_oracle_gradients(self, case, rational, data):
        polys = _invariant_polys(*case)
        coord = frac_st if rational else st.integers(-30, 30)
        pt = data.draw(st.fixed_dictionaries({v: coord for v in polys[0].varset}))
        _assert_rows_scale_the_gradients(polys, pt)

    @given(int_point_st | rational_point_st)
    def test_a_non_homogeneous_member_is_padded(self, pt):
        polys = [_UNEVEN, _UNEVEN * 2, oracles.partial(_UNEVEN, "x")]
        _assert_rows_scale_the_gradients(polys, pt)

    def test_rational_point_rows_pin_the_scale(self):
        # at (w, x, y, z) = (1/2, 1/3, 0, 1): D = 6, plan denominator 30,
        # every gradient term padded to 2 factors: row = 30 * 6^2 * grad
        pt = {"w": Fraction(1, 2), "x": Fraction(1, 3), "y": 0, "z": 1}
        (row,) = differential_matrix([_UNEVEN], pt)
        assert row == [1080 * g for g in oracles.gradient_at(_UNEVEN, pt)]

    def test_chain_matrices_reach_rank_and_nullspace_as_int(self, monkeypatch):
        # every matrix sl2_chain builds by differential_matrix (in nilfiber
        # and behind omega_test) and hands to rank or nullspace is all-int,
        # at rational kernel points too
        made, checked, rational = [], [], []
        for module, name in ((nilfiber, "differential_matrix"),
                             (liealg, "differential_matrix")):
            original = getattr(module, name)

            def spy(polys, point, _original=original):
                rational.append(any(type(v) is Fraction for v in point.values()))
                rows = _original(polys, point)
                made.append(rows)
                return rows
            monkeypatch.setattr(module, name, spy)
        for name in ("rank", "nullspace"):
            original = getattr(linalg, name)

            def checking(rows, *args, _original=original, **kwargs):
                if any(rows is m for m in made):
                    checked.append(all(type(x) is int for row in rows for x in row))
                return _original(rows, *args, **kwargs)
            monkeypatch.setattr(linalg, name, checking)
        for seed in range(3):
            nilfiber.sl2_chain(levels=3, seed=seed)
        assert len(checked) == len(made) > 0 and all(checked)
        assert any(rational)


class TestExactPointBoundary:
    @pytest.mark.parametrize("bad", [0.5, 2.0, "1", None])
    def test_polynomial_evaluation_refuses(self, sl2, bad):
        f = sl2.invariants.polys[0]
        pt = {"e": 1, "h": bad, "f": 3}
        with pytest.raises(TypeError):
            f.evaluate(pt)
        with pytest.raises(TypeError):
            f.gradient_at(pt)
        with pytest.raises(TypeError):
            differential_matrix([f], pt)

    def test_differential_matrix_needs_every_coordinate(self, sl2):
        with pytest.raises(MissingAssignmentError, match="'f'"):
            differential_matrix(sl2.invariants.polys, {"e": 1, "h": Fraction(1, 2)})

    @pytest.mark.parametrize("bad", [0.5, 2.0, "1", None])
    def test_check_point_refuses(self, sl2, bad):
        pt = {"e": bad, "h": 1, "f": 2}
        with pytest.raises(TypeError):
            check_point(sl2.algebra, pt)
        with pytest.raises(TypeError):
            kirillov_matrix(sl2.algebra, pt)

    @pytest.mark.parametrize("bad", [0.5, 2.0, "1", None])
    def test_flatten_point_refuses(self, sl2, bad):
        L1 = takiff(sl2.algebra, 1)
        with pytest.raises(TypeError):
            flatten_point(L1, [{"e": 1, "h": 2, "f": 3}, {"e": bad, "h": 0, "f": 0}])

    @pytest.mark.parametrize("bad", [0.5, 2.0, "1", None])
    def test_check_point_refuses_a_coordinate_list_holding_a_non_exact_value(self, sl2, bad):
        with pytest.raises(TypeError):
            check_point(sl2.algebra, [bad, 1, 2])
        with pytest.raises(TypeError):
            kirillov_matrix(sl2.algebra, [1, bad, 2])

    @pytest.mark.parametrize("size", [0, 2, 4, 9])
    def test_check_point_refuses_a_coordinate_list_of_the_wrong_length(self, sl2, size):
        with pytest.raises(MissingAssignmentError, match="3 entries"):
            check_point(sl2.algebra, list(range(1, size + 1)))
        with pytest.raises(MissingAssignmentError):
            kirillov_matrix(sl2.algebra, list(range(1, size + 1)))

    def test_a_mapping_and_its_coordinate_list_check_alike(self, sl3):
        L = sl3.algebra
        for t in range(5):
            point = sampling.random_coords(L.basis, sampling.rng(17, t))
            vals = [point[b] for b in L.basis]
            assert check_point(L, point) == check_point(L, vals) == vals
            assert kirillov_matrix(L, point) == kirillov_matrix(L, vals)
            assert sl3.invariants.kirillov_rank_at(point) == \
                sl3.invariants.kirillov_rank_at(vals)
        half = [Fraction(1, 2), True, Fraction(4, 2)] + [0] * 5
        assert check_point(L, half) == [Fraction(1, 2), 1, 2] + [0] * 5

    def test_integral_fractions_and_bools_become_int(self, sl2):
        assert check_point(sl2.algebra, {"e": Fraction(4, 2), "h": True, "f": Fraction(1, 2)}) \
            == [2, 1, Fraction(1, 2)]
        assert [type(v) for v in check_point(sl2.algebra, {"e": Fraction(4, 2), "h": True,
                                                           "f": 0})] == [int, int, int]
