from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from takiffalg import catalog, liealg, linalg, raistauvel, sampling
from takiffalg.liealg import (
    AlgebraError,
    AlgebraFormatError,
    HomogeneityError,
    IndexEstimateError,
    InvariantSet,
    LieAlgebra,
    bracket_defect_against,
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
from takiffalg.takiff import flatten_point, takiff

from oracles import (
    bareiss_rank,
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
from oracles import kirillov_matrix as oracle_kirillov_matrix


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

    def test_fields_are_read_only(self, sl2):
        L = takiff(sl2.algebra, 1)
        for name in ("label", "basis", "brackets", "grading"):
            with pytest.raises(AttributeError):
                setattr(L, name, getattr(L, name))
            with pytest.raises(AttributeError):
                delattr(L, name)
        assert L.label == "sl2<1>" and L.grading is not None

    def test_construction_by_position_and_keyword(self, sl2):
        L = sl2.algebra
        by_position = LieAlgebra(L.label, L.basis, L.brackets)
        by_keyword = LieAlgebra(label=L.label, basis=L.basis, brackets=L.brackets,
                                grading=None)
        assert by_position.grading is None
        assert (by_position.label, by_position.basis, by_position.brackets) == \
            (L.label, L.basis, L.brackets)
        assert by_position == by_keyword == L
        with pytest.raises(AlgebraFormatError):
            LieAlgebra(label="x", basis=("a", "a"), brackets={})

    def test_equality_is_by_value(self, sl2):
        L = sl2.algebra
        kirillov_matrix(L, {b: 1 for b in L.basis})     # fills the cached plan
        fresh = LieAlgebra.create("sl2", L.basis, L.brackets)
        assert fresh is not L and fresh == L
        assert fresh != LieAlgebra.create("other", L.basis, L.brackets)
        assert fresh != _sl2_corrupted()
        assert takiff(fresh, 2) == takiff(L, 2)
        assert takiff(L, 2) != takiff(L, 1)

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
        assert L.dim - index(L, trials=5, seed=0) == 6

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rank_estimate_needs_a_trial(self, sl2, trials):
        with pytest.raises(ValueError):
            index(sl2.algebra, trials=trials)

    def test_an_odd_dim_plus_index_names_the_sum(self, sl3):
        # no rank of the skew Kirillov form is odd, so no number of trials
        # gives this index; the message says so instead of asking for more
        with pytest.raises(IndexEstimateError, match=r"8 \+ 1 = 9 is odd"):
            magic_from_index(sl3.algebra, 1)


@st.composite
def _bracket_tables(draw) -> LieAlgebra:
    """Any antisymmetric bracket table on at most 5 basis elements, Jacobi or not."""
    n = draw(st.integers(1, 5))
    coeff = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entries = {(i, j): draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=n))
               for i in range(n) for j in range(i + 1, n)}
    return LieAlgebra.create("random", tuple(f"b{k}" for k in range(n)), entries)


@lru_cache(maxsize=None)
def _takiff_with_certified(name: str, m: int):
    """(L<m>, its certified family, or None when L has no invariants)."""
    entry = catalog.load(name)
    if not len(entry.invariants):
        return takiff(entry.algebra, m), None
    fam = raistauvel.build_family(entry.algebra, m, entry.invariants)
    assert oracle_identity_defect(fam) is None
    return fam.algebra, fam


class TestParityStop:
    """The trials stop at dim - len(certified) rounded down to even, which no rank exceeds."""

    @staticmethod
    def _spy(monkeypatch, calls):
        real = kirillov_rank_at

        def rank(L, point):
            calls.append(point)
            return real(L, point)

        monkeypatch.setattr(liealg, "kirillov_rank_at", rank)

    def test_sl2_stops_after_its_first_generic_trial(self, monkeypatch, sl2):
        calls = []
        self._spy(monkeypatch, calls)
        assert index(sl2.algebra, trials=5, seed=0) == 1
        assert len(calls) == 1

    def test_sl3_runs_every_trial(self, monkeypatch, sl3):
        calls = []
        self._spy(monkeypatch, calls)
        assert index(sl3.algebra, trials=5, seed=0) == 2
        assert len(calls) == 5

    @pytest.mark.parametrize("members,ranked", [(2, 1), (1, 1), (0, 5), (None, 5)])
    def test_a_certified_set_lowers_the_ceiling(self, monkeypatch, sl3, members, ranked):
        # ind sl3 = 2 caps the rank at 6; one Casimir gives the odd
        # ceiling 7, which rounds down to 6
        certified = (None if members is None
                     else InvariantSet(algebra=sl3.algebra, polys=sl3.invariants.polys[:members]))
        calls = []
        self._spy(monkeypatch, calls)
        assert index(sl3.algebra, trials=5, seed=0, certified=certified) == 2
        assert len(calls) == ranked

    def test_a_set_over_another_algebra_is_refused(self, sl2, sl3):
        with pytest.raises(AlgebraError, match="belong to sl2, not sl3"):
            index(sl3.algebra, certified=sl2.invariants)
        fam = raistauvel.build_family(sl2.algebra, 1, sl2.invariants)
        with pytest.raises(AlgebraError):
            index(sl2.algebra, certified=fam)

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
        Lm, certified = _takiff_with_certified(name, m)
        idx = index(Lm, trials=trials, seed=seed, certified=certified)
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
        assert residue.terms

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
            assert poisson_bracket(L, f, Polynomial.variable(L.basis, b)) == ({} if defect is None
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

    def test_fields_are_read_only(self, sl3):
        fs = sl3.invariants
        for name in ("algebra", "polys"):
            with pytest.raises(AttributeError):
                setattr(fs, name, getattr(fs, name))
            with pytest.raises(AttributeError):
                delattr(fs, name)

    def test_construction_by_position_and_keyword(self, sl3):
        fs = sl3.invariants
        by_position = InvariantSet(fs.algebra, list(fs.polys))
        assert by_position.polys == fs.polys and type(by_position.polys) is tuple
        assert by_position == InvariantSet(algebra=fs.algebra, polys=fs.polys) == fs
        assert InvariantSet(fs.algebra, fs.polys[:1]) != fs


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


def _route_spy(monkeypatch) -> list:
    """Record "block" for each rank of a B(xi) block and the width of each Kirillov matrix."""
    seen = []
    rank, matrix = linalg.rank, liealg.kirillov_matrix

    def block_rank(rows):
        seen.append("block")
        return rank(rows)

    def kirillov(L, point):
        seen.append(L.dim)
        return matrix(L, point)

    monkeypatch.setattr(linalg, "rank", block_rank)
    monkeypatch.setattr(liealg, "kirillov_matrix", kirillov)
    return seen


# (|S|, |Z|) of the split that each algebra with a commuting half takes
COMMUTING_HALVES = {"heis1": (1, 2), "heis2": (2, 3), "nilrad_sl3": (1, 2),
                    "slnV2": (3, 4), "slnV3": (8, 9)}

_POINT_KINDS = ["random", "zeroed", "small", "rational"]


def _point(data, L, kind) -> dict:
    """A point of L*: random, random with some coordinates zeroed, in [-2, 2], or rational."""
    if kind == "small":
        coord = st.integers(-2, 2)
    elif kind == "rational":
        coord = st.fractions(min_value=-50, max_value=50, max_denominator=7)
    else:
        coord = st.integers(-1000, 1000)
    vals = data.draw(st.lists(coord, min_size=L.dim, max_size=L.dim))
    if kind == "zeroed":
        zero = data.draw(st.sets(st.sampled_from(range(L.dim))))
        vals = [0 if k in zero else v for k, v in enumerate(vals)]
    return dict(zip(L.basis, vals))


def _oracle_rank(L, point) -> int:
    return naive_rank(oracle_kirillov_matrix(L, point))


class TestCommutingHalf:
    """rank K(xi) through B(xi) = K(xi)[S][Z] with Z pairwise commuting.

    K(xi)[Z][Z] = 0 gives rank K(xi) <= |S| + rank B(xi) <= 2|S|, with
    equality exactly when B(xi) has full row rank, so the rank is exact
    whether or not the set is certified; every other point ranks the
    Kirillov matrix.
    """

    @pytest.mark.parametrize("name", sorted(COMMUTING_HALVES))
    def test_the_split_of_each_commuting_half(self, name):
        entry = catalog.load(name)
        L = entry.algebra
        S, Z, _ = L._commuting_split()
        assert (len(S), len(Z)) == COMMUTING_HALVES[name]
        assert 2 * len(S) == L.dim - len(entry.invariants)
        if name.startswith("slnV"):
            assert [L.basis[z] for z in Z] == [b for b in L.basis if b.startswith("v")]

    @given(_bracket_tables())
    def test_z_commutes_and_the_plan_is_the_block(self, L):
        S, Z, plan = L._commuting_split()
        assert sorted(S + Z) == list(range(L.dim))
        assert all(not bracket(L, z, w) for z in Z for w in Z)
        point = {b: k + 1 for k, b in enumerate(L.basis)}
        full = oracle_kirillov_matrix(L, point)
        den = L._int_plan()[0]
        block = [[0] * len(Z) for _ in S]
        for a, c, vec in plan:
            block[a][c] = Fraction(sum(x * point[L.basis[k]] for k, x in vec), den)
        assert block == [[full[s][z] for z in Z] for s in S]

    @given(_bracket_tables(), st.data())
    def test_any_set_of_the_ceiling_size_ranks_exactly(self, L, data):
        # the route needs no certificate: a set of linear forms of the size
        # dim - 2|S| takes it, whatever the brackets
        S, _, _ = L._commuting_split()
        l = L.dim - 2 * len(S)
        assume(l >= 1)
        fs = InvariantSet(algebra=L, polys=tuple(Polynomial.variable(L.basis, b)
                                                 for b in L.basis[:l]))
        point = _point(data, L, data.draw(st.sampled_from(_POINT_KINDS)))
        assert fs.kirillov_rank_at(point) == _oracle_rank(L, point)

    def test_a_block_entry_that_cancels_falls_back(self):
        # [y, x] = -y - z, so Z = {x, z}, S = {y} and B(xi) = [xi_y + xi_z, 0]
        # up to sign: zero where xi_y = -xi_z, and then rank K = 0
        L = LieAlgebra.create("twoterm", ("x", "y", "z"), {(0, 1): {1: 1, 2: 1}})
        assert L._commuting_split()[:2] == ((1,), (0, 2))
        fs = InvariantSet(algebra=L, polys=(parse_poly("x", L.basis),))
        assert fs.kirillov_rank_at({"x": 5, "y": 3, "z": -3}) == 0
        assert fs.kirillov_rank_at({"x": 5, "y": 3, "z": -2}) == 2

    @pytest.mark.parametrize("kind", _POINT_KINDS)
    @pytest.mark.parametrize("name", catalog.NAMES)
    @settings(max_examples=10)
    @given(data=st.data())
    def test_every_catalog_entry_ranks_exactly(self, name, kind, data):
        entry = catalog.load(name)
        point = _point(data, entry.algebra, kind)
        assert entry.invariants.kirillov_rank_at(point) == _oracle_rank(entry.algebra, point)

    @pytest.mark.parametrize("name", ["heis1", "heis2"])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_a_heisenberg_point_off_the_centre_falls_back(self, name, data):
        # xi_z = 0: every entry of B(xi) is <xi, z> or 0, so the matrix ranks
        entry = catalog.load(name)
        L = entry.algebra
        point = {**_point(data, L, "random"), "z": 0}
        with pytest.MonkeyPatch.context() as patch:
            seen = _route_spy(patch)
            rank = entry.invariants.kirillov_rank_at(point)
        assert rank == _oracle_rank(L, point)
        assert seen == ["block", L.dim]

    @settings(max_examples=10)
    @given(data=st.data())
    def test_a_singular_coordinate_block_of_slnv3_falls_back(self, data):
        # B(xi) sends a to a^T X, X the 3 x 3 block of xi on V: rank X < 3
        # leaves a traceless a with a^T X = 0, and rank K(xi) < 16
        entry = catalog.load("slnV3")
        L = entry.algebra
        point = _point(data, L, data.draw(st.sampled_from(["random", "small"])))
        a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        for col in "123":
            point[f"v3{col}"] = a * point[f"v1{col}"] + b * point[f"v2{col}"]
        with pytest.MonkeyPatch.context() as patch:
            seen = _route_spy(patch)
            rank = entry.invariants.kirillov_rank_at(point)
        assert rank == _oracle_rank(L, point) < 16
        assert seen == ["block", L.dim]

    @pytest.mark.parametrize("top", ["singular", "zero"])
    @settings(max_examples=5)
    @given(data=st.data())
    def test_an_slnv3_family_at_a_singular_top(self, top, data):
        fam = _takiff_with_certified("slnV3", 1)[1]
        L, Lm = fam.base.algebra, fam.algebra
        low = _point(data, L, "small")
        high = _point(data, L, "small")
        for col in "123":
            high[f"v3{col}"] = high[f"v1{col}"] if top == "singular" else 0
        if top == "zero":
            high = dict.fromkeys(L.basis, 0)
        flat = flatten_point(Lm, [low, high])
        assert fam.kirillov_rank_at(flat) == bareiss_rank(oracle_kirillov_matrix(Lm, flat))

    @pytest.mark.parametrize("name", ["slnV2", "slnV3", "heis2"])
    def test_a_generic_point_builds_no_matrix(self, monkeypatch, name):
        entry = catalog.load(name)
        L = entry.algebra
        seen = _route_spy(monkeypatch)
        for t in range(5):
            point = sampling.random_coords(L.basis, sampling.rng(13, 61, t))
            assert entry.invariants.kirillov_rank_at(point) == L.dim - 1
        assert seen == ["block"] * 5

    @pytest.mark.parametrize("name", ["sl2", "sl3", "affine2", "slnV3-empty"])
    def test_the_matrix_route_where_the_half_is_short_or_the_set_empty(self, monkeypatch,
                                                                        name):
        # sl2 and sl3 have no commuting half of size (dim + ind)/2; affine2
        # has no invariants, and an empty set never tries the block
        entry = catalog.load(name.removesuffix("-empty"))
        L = entry.algebra
        fs = InvariantSet(algebra=L, polys=()) if name.endswith("-empty") else entry.invariants
        if len(fs):
            assert 2 * len(L._commuting_split()[0]) != L.dim - len(fs)
        seen = _route_spy(monkeypatch)
        for t in range(3):
            point = sampling.random_coords(L.basis, sampling.rng(13, 67, t))
            assert fs.kirillov_rank_at(point) == _oracle_rank(L, point)
        assert seen == [L.dim] * 3
