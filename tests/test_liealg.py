from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from takiffalg import catalog, linalg, raistauvel, sampling
from takiffalg.liealg import (
    AlgebraError,
    AlgebraFormatError,
    HomogeneityError,
    InvariantSet,
    LieAlgebra,
    bracket_defect_against,
    generic_kirillov_rank,
    index,
    invariance_defect,
    is_symmetric_invariant,
    kirillov_matrix,
    kirillov_rank_at,
    magic_from_index,
    omega_test,
    validate,
)
from takiffalg.polyring import Polynomial, parse_poly
from takiffalg.takiff import takiff

from oracles import (
    bracket,
    bracket_elements,
    bracket_values_at,
    gradient_at,
    is_regular,
    jacobi_residuals,
    naive_rank,
    poisson_bracket,
)
from oracles import derivative_identity_defect as oracle_identity_defect


def _sl2_corrupted():
    # [e, f] changed from h to e; Jacobi must fail on (e, h, f).
    return LieAlgebra.create("badsl2", ("e", "h", "f"), {
        (0, 1): {0: -2},
        (0, 2): {0: 1},
        (1, 2): {2: -2},
    })


class TestConstruction:
    def test_orientation_normalization(self, sl2):
        L = sl2.algebra
        assert bracket(L, 0, 1) == {0: Fraction(-2)}
        assert bracket(L, 1, 0) == {0: Fraction(2)}
        assert bracket(L, 0, 0) == {}

    def test_rejects_duplicates_and_self_pairs(self):
        with pytest.raises(AlgebraFormatError):
            LieAlgebra.create("x", ("a", "a"), {})
        with pytest.raises(AlgebraFormatError):
            LieAlgebra.create("x", ("a", "b"), {(0, 0): {1: 1}})
        with pytest.raises(AlgebraFormatError):
            LieAlgebra.create("x", ("a", "b"), {(0, 5): {1: 1}})

    def test_structure_equal_contract(self, sl2):
        relabeled = LieAlgebra.create("other", sl2.algebra.basis, sl2.algebra.brackets)
        assert sl2.algebra.structure_equal(relabeled)
        assert not sl2.algebra.structure_equal(_sl2_corrupted())

    def test_nilradical_is_heisenberg_up_to_renaming(self, heis1):
        nil = catalog.load("nilrad_sl3").algebra
        assert nil.dim == heis1.algebra.dim
        assert nil.brackets == heis1.algebra.brackets

    def test_bracket_elements_bilinearity(self, sl2):
        L = sl2.algebra
        x = {0: Fraction(1), 1: Fraction(2)}
        y = {2: Fraction(3)}
        xy = bracket_elements(L, x, y)
        # [e + 2h, 3f] = 3h - 12f
        assert xy == {1: Fraction(3), 2: Fraction(-12)}


class TestValidate:
    def test_catalog_algebras_satisfy_jacobi(self):
        for name in catalog.NAMES:
            rep = validate(catalog.load(name).algebra)
            assert rep.summary == "PASS", name

    def test_corrupted_sl2_fails_with_witness(self):
        rep = validate(_sl2_corrupted())
        assert rep.summary == "FAIL"
        (check,) = [c for c in rep.checks if c.name == "jacobi"]
        assert check.witness["violation_count"] == 1
        assert check.witness["violations"][0]["triple"] == ["e", "h", "f"]

    def test_sparse_sums_keep_triple_order_and_the_first_five(self):
        # the truncation spreads the one bad triple over ten triples
        L = takiff(_sl2_corrupted(), 2)
        want = jacobi_residuals(L)
        assert len(want) > 5
        (check,) = validate(L).checks
        assert check.status == "FAIL"
        assert check.witness["triples_checked"] == 9 * 8 * 7 // 6
        assert check.witness["violation_count"] == len(want)
        assert check.witness["violations"] == [
            {"triple": [L.basis[t] for t in triple],
             "residual": {L.basis[k]: v for k, v in sorted(res.items())}}
            for triple, res in sorted(want.items())][:5]


class TestKirillov:
    def test_heisenberg_matrix_shape(self, heis1):
        z = Fraction(5)
        pt = {"x": Fraction(7), "y": Fraction(-3), "z": z}
        B = kirillov_matrix(heis1.algebra, pt)
        assert B == [[0, z, 0], [-z, 0, 0], [0, 0, 0]]

    def test_skew_symmetry_random(self, sl3):
        for trial in range(10):
            r = sampling.rng(3, 17, trial)
            pt = sampling.random_coords(sl3.algebra.basis, r)
            B = kirillov_matrix(sl3.algebra, pt)
            n = len(B)
            assert all(B[i][j] == -B[j][i] for i in range(n) for j in range(n))

    def test_index_and_magic(self):
        expected = {"sl2": (1, 2), "sl3": (2, 5), "heis1": (1, 2),
                    "heis2": (1, 3), "affine2": (0, 1), "slnV2": (1, 4),
                    "nilrad_sl3": (1, 2)}
        for name, (ind, magic) in expected.items():
            L = catalog.load(name).algebra
            assert index(L, trials=5, seed=0) == ind, name
            assert magic_from_index(L, ind) == magic, name

    def test_generic_rank_against_oracle(self, sl3):
        L = sl3.algebra
        r = sampling.rng(3, 18)
        pt = sampling.random_coords(L.basis, r)
        assert linalg.rank(kirillov_matrix(L, pt)) == naive_rank(kirillov_matrix(L, pt))
        assert generic_kirillov_rank(L, trials=5, seed=0) == 6

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rank_estimate_needs_a_trial(self, sl2, trials):
        with pytest.raises(ValueError):
            generic_kirillov_rank(sl2.algebra, trials=trials)
        with pytest.raises(ValueError):
            index(sl2.algebra, trials=trials)


@st.composite
def _bracket_tables(draw) -> LieAlgebra:
    """Any antisymmetric bracket table on at most 5 basis elements, Jacobi or not."""
    n = draw(st.integers(1, 5))
    coeff = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entries = {(i, j): draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=n))
               for i in range(n) for j in range(i + 1, n)}
    return LieAlgebra.create("random", tuple(f"b{k}" for k in range(n)), entries)


@lru_cache(maxsize=None)
def _takiff_with_rank(name: str, m: int):
    """(L<m>, rank function): the certified family's block ranks when L has invariants."""
    entry = catalog.load(name)
    if not len(entry.invariants):
        return takiff(entry.algebra, m), kirillov_rank_at
    fam = raistauvel.build_family(entry.algebra, m, entry.invariants)
    assert oracle_identity_defect(fam) is None
    return fam.algebra, lambda _, flat: raistauvel.takiff_kirillov_rank(
        fam, flat, kirillov_rank_at)


class TestParityStop:
    """The trials stop at min(dim, bound) rounded down to even, which no rank exceeds."""

    @staticmethod
    def _spy(calls):
        def rank(L, point):
            calls.append(point)
            return kirillov_rank_at(L, point)
        return rank

    def test_sl2_stops_after_its_first_generic_trial(self, sl2):
        calls = []
        assert generic_kirillov_rank(sl2.algebra, trials=5, seed=0,
                                     rank=self._spy(calls)) == 2
        assert len(calls) == 1

    def test_sl3_runs_every_trial(self, sl3):
        calls = []
        assert generic_kirillov_rank(sl3.algebra, trials=5, seed=0,
                                     rank=self._spy(calls)) == 6
        assert len(calls) == 5

    @pytest.mark.parametrize("bound,ranked", [(6, 1), (7, 1), (8, 5), (None, 5)])
    def test_a_bound_lowers_the_ceiling(self, sl3, bound, ranked):
        # ind sl3 = 2 caps the rank at 6; an odd bound rounds down to even
        calls = []
        assert generic_kirillov_rank(sl3.algebra, trials=5, seed=0, bound=bound,
                                     rank=self._spy(calls)) == 6
        assert len(calls) == ranked
        assert index(sl3.algebra, trials=5, seed=0, bound=bound) == 2

    @pytest.mark.parametrize("bound", [-1, -6])
    def test_a_negative_bound_is_refused(self, sl3, bound):
        for estimate in (generic_kirillov_rank, index):
            with pytest.raises(ValueError, match="cannot be negative"):
                estimate(sl3.algebra, bound=bound)

    @pytest.mark.parametrize("name", catalog.NAMES)
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_index_is_the_maximum_over_every_trial(self, name, m):
        # the ranks of all 5 trials, by the general `linalg.rank`, with no stop
        L = catalog.load(name).algebra
        Lm = takiff(L, m) if m else L
        for seed in (0, 1, 7):
            streams = sampling.streams(seed, sampling.TAG_INDEX)
            ranks = [linalg.rank(kirillov_matrix(Lm, sampling.random_coords(Lm.basis,
                                                                             streams(t))))
                     for t in range(5)]
            assert index(Lm, trials=5, seed=seed) == Lm.dim - max(ranks)


class TestIndexParity:
    """dim + ind is even: the Kirillov form is skew, so its exact rank is even.

    This is why b = (dim + ind)/2 never trips `magic_from_index`'s parity
    guard for an index that `index` returns, whatever the points drawn.
    """

    @given(_bracket_tables(), st.integers(1, 5), st.integers(0, 2**16))
    def test_random_bracket_tables(self, L, trials, seed):
        idx = index(L, trials=trials, seed=seed)
        assert (L.dim + idx) % 2 == 0
        assert 2 * magic_from_index(L, idx) == L.dim + idx

    @given(st.sampled_from(catalog.NAMES), st.sampled_from([1, 2]),
           st.integers(1, 5), st.integers(0, 2**16))
    def test_catalog_truncations(self, name, m, trials, seed):
        Lm, rank = _takiff_with_rank(name, m)
        idx = index(Lm, trials=trials, seed=seed, rank=rank)
        assert (Lm.dim + idx) % 2 == 0
        assert 2 * magic_from_index(Lm, idx) == Lm.dim + idx


class TestInvariance:
    def test_sl2_casimir_is_invariant(self, sl2):
        assert is_symmetric_invariant(sl2.algebra, sl2.invariants.polys[0])

    def test_wrong_coefficient_gives_defect(self, sl2):
        bad = parse_poly("h^2 + 3*e*f", sl2.algebra.basis)
        defect = invariance_defect(sl2.algebra, bad)
        assert defect is not None
        name, residue = defect
        assert name in sl2.algebra.basis
        assert not residue.is_zero

    def test_all_catalog_invariants(self):
        for name in catalog.NAMES:
            entry = catalog.load(name)
            for f in entry.invariants.polys:
                assert is_symmetric_invariant(entry.algebra, f), name

    def test_poisson_antisymmetry_and_gradient_route(self, sl2):
        # the term-by-term oracle bracket against the gradient route, and
        # against the package's bracket with each basis element
        L = sl2.algebra
        f = parse_poly("e*h", L.basis)
        g = parse_poly("f^2 + h", L.basis)
        fg = Polynomial(L.basis, poisson_bracket(L, f, g))
        assert fg == -Polynomial(L.basis, poisson_bracket(L, g, f))
        for trial in range(10):
            r = sampling.rng(3, 19, trial)
            pt = sampling.random_coords(L.basis, r)
            # {f, g}(xi) = sum_t {f, b_t}(xi) dg/db_t(xi), both factors by the oracle
            want = sum(v * d for v, d in zip(bracket_values_at(L, f, pt),
                                             gradient_at(g, pt)))
            assert fg.evaluate(pt) == want
        for t, b in enumerate(L.basis):
            defect = bracket_defect_against(L, f, [t])
            assert poisson_bracket(L, f, L.variable(b)) == ({} if defect is None
                                                           else defect[1].terms)


class TestInvariantSet:
    def test_rejects_constant(self, sl2):
        with pytest.raises(AlgebraError):
            InvariantSet(algebra=sl2.algebra,
                         polys=(parse_poly("2", sl2.algebra.basis),))

    def test_rejects_inhomogeneous(self, sl2):
        with pytest.raises(HomogeneityError):
            InvariantSet(algebra=sl2.algebra,
                         polys=(parse_poly("h^2 + e", sl2.algebra.basis),))

    def test_rejects_foreign_varset(self, sl2, heis1):
        with pytest.raises(AlgebraError):
            InvariantSet(algebra=sl2.algebra, polys=heis1.invariants.polys)

    def test_degrees(self, sl3):
        assert sl3.invariants.degrees() == (2, 3)


class TestRegularityAndOmega:
    def test_sl2_gradient_at_nilpotent(self, sl2):
        C = sl2.invariants.polys[0]
        pt = {"e": Fraction(1), "h": Fraction(0), "f": Fraction(0)}
        assert C.gradient_at(pt) == [Fraction(0), Fraction(0), Fraction(4)]
        assert omega_test(sl2.invariants, pt)

    def test_origin_is_singular(self, sl2):
        origin = {b: Fraction(0) for b in sl2.algebra.basis}
        assert not omega_test(sl2.invariants, origin)

    def test_omega_needs_invariants(self, sl2):
        empty = InvariantSet(algebra=sl2.algebra, polys=())
        with pytest.raises(AlgebraError):
            omega_test(empty, {b: Fraction(0) for b in sl2.algebra.basis})

    def test_regularity(self, sl2):
        L = sl2.algebra
        assert is_regular(L, {"e": Fraction(1), "h": Fraction(0), "f": Fraction(0)}, 1)
        assert not is_regular(L, {b: Fraction(0) for b in L.basis}, 1)
