from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from takiffalg import algio, catalog, sampling
from takiffalg.liealg import AlgebraError, LieAlgebra, validate
from takiffalg.takiff import (
    TakiffGrading,
    flatten_point,
    generating_targets,
    graded_name,
    graded_varset,
    multi_current,
    nilpotent_ideal,
    takiff,
)

from oracles import (
    ad_star,
    bracket,
    bracket_elements,
    coadjoint_apply,
    coadjoint_apply_generic,
    generated_subalgebra,
    split_element,
    split_point,
)


def _idx(L, name):
    return L.basis.index(name)


def _bracket_named(L, a, b):
    out = bracket_elements(L, {_idx(L, a): Fraction(1)}, {_idx(L, b): Fraction(1)})
    return {L.basis[k]: v for k, v in out.items()}


class TestConstruction:
    def test_basis_is_grade_major(self, sl2):
        Lm = takiff(sl2.algebra, 2)
        assert Lm.basis == ("e@0", "h@0", "f@0",
                            "e@1", "h@1", "f@1",
                            "e@2", "h@2", "f@2")
        assert Lm.label == "sl2<2>"
        assert Lm.dim == 9

    def test_rejects_nonpositive_degree(self, sl2):
        with pytest.raises(ValueError):
            takiff(sl2.algebra, 0)
        with pytest.raises(ValueError):
            multi_current(sl2.algebra, [])

    def test_bracket_examples(self, sl2, heis1):
        L1 = takiff(sl2.algebra, 1)
        assert _bracket_named(L1, "h@0", "e@1") == {"e@1": Fraction(2)}
        assert _bracket_named(L1, "e@1", "f@1") == {}
        H2 = takiff(heis1.algebra, 2)
        assert _bracket_named(H2, "x@1", "y@1") == {"z@2": Fraction(1)}
        assert _bracket_named(H2, "x@2", "y@1") == {}

    def test_grading_law_exhaustive(self, sl2):
        L = sl2.algebra
        m = 2
        Lm = takiff(L, m)
        g = Lm.grading
        n = L.dim
        for i in range(Lm.dim):
            for j in range(Lm.dim):
                if i == j:
                    continue
                got = bracket(Lm, i, j)
                gi, gj = g.grade_of[Lm.basis[i]], g.grade_of[Lm.basis[j]]
                base = bracket(L, i % n, j % n)
                if gi + gj > m:
                    assert got == {}, (i, j)
                else:
                    want = {k + (gi + gj) * n: c for k, c in base.items()}
                    assert got == want, (i, j)

    def test_grading_metadata(self, heis1):
        Lm = takiff(heis1.algebra, 3)
        g = Lm.grading
        assert isinstance(g, TakiffGrading)
        assert g.base_dim == 3 and g.depth == 3
        assert g.grade_of["z@2"] == 2
        assert g.base_name_of["z@2"] == "z"
        assert TakiffGrading.from_dict(g.to_dict()) == g

    def test_multi_current_labels_and_names(self, heis1):
        L11 = multi_current(heis1.algebra, [1, 1])
        assert L11.label == "heis1<1,1>"
        assert "x@1@0" in L11.basis
        assert graded_name("x", 1) == "x@1"
        # outer grades add; the inner bracket is the level-1 takiff bracket
        assert _bracket_named(L11, "x@1@0", "y@0@1") == {"z@1@1": Fraction(1)}
        assert _bracket_named(L11, "x@1@1", "y@0@1") == {}

    @pytest.mark.parametrize("degrees", [(m,) for m in (1, 2, 3)] + [(1, 2)])
    def test_table_equals_create_on_unoriented_entries(self, degrees):
        # the entries as they were once handed to LieAlgebra.create: pair
        # (s*n + i, t*n + j) in whatever orientation, re-normalized there
        for name in catalog.NAMES:
            L = catalog.load(name).algebra
            for m in degrees:
                n = L.dim
                entries = {(s * n + i, t * n + j): {(s + t) * n + k: c for k, c in coeffs.items()}
                           for (i, j), coeffs in L.brackets.items()
                           for s in range(m + 1) for t in range(m + 1 - s)}
                Lm = takiff(L, m)
                want = LieAlgebra.create(Lm.label, Lm.basis, entries, grading=Lm.grading)
                assert list(Lm.brackets.items()) == list(want.brackets.items()), (name, m)
                L = Lm
            assert L.structure_equal(multi_current(catalog.load(name).algebra, degrees))

    def test_nilpotent_ideal(self, sl2):
        Lm = takiff(sl2.algebra, 2)
        ideal = nilpotent_ideal(Lm)
        assert ideal == ["e@1", "h@1", "f@1", "e@2", "h@2", "f@2"]

    def test_nilpotent_ideal_requires_grading(self, sl2):
        with pytest.raises(AlgebraError):
            nilpotent_ideal(sl2.algebra)


# mostly zeros, so that some random tables satisfy Jacobi
_CONSTANTS = st.sampled_from([0] * 6 + [1, -1, 2, Fraction(1, 2), Fraction(-1, 3)])


@st.composite
def _bracket_tables(draw):
    """An antisymmetric bracket table on at most 4 basis elements, small rational constants."""
    n = draw(st.integers(1, 4))
    entries = {(i, j): {k: draw(_CONSTANTS) for k in range(n)}
               for i in range(n) for j in range(i + 1, n)}
    return LieAlgebra.create("random", tuple(f"b{k}" for k in range(n)), entries)


_HEISENBERG = LieAlgebra.create("heis", ("x", "y", "z"), {(0, 1): {2: 1}})
_BROKEN_SL2 = LieAlgebra.create("badsl2", ("e", "h", "f"), {
    (0, 1): {0: -2}, (0, 2): {0: Fraction(1, 3), 1: 1}, (1, 2): {2: -2}})


class TestJacobiTransfer:
    """[x@a, [y@b, z@c]] = [x, [y, z]]@(a+b+c), or 0 past grade m, so L<m>
    satisfies Jacobi exactly when L does; `verify` certifies its jacobi
    check from the base by this lemma."""

    @given(L=_bracket_tables(), m=st.sampled_from([1, 2]))
    @example(L=_HEISENBERG, m=2)
    @example(L=_BROKEN_SL2, m=1)
    def test_the_truncation_satisfies_jacobi_iff_the_base_does(self, L, m):
        (base,) = validate(L).checks
        (truncated,) = validate(takiff(L, m)).checks
        assert truncated.status == base.status


def _truncations():
    for name in catalog.NAMES:
        for m in (1, 2, 3):
            yield name, (m,)
    for name in ("sl2", "heis1"):
        for m in (1, 2, 3):
            yield name, (1, m)


class TestGeneratingTargets:
    """The bracket targets generate L<m> and its ideal, by a Fraction span closure."""

    @pytest.mark.parametrize("name,degrees", list(_truncations()))
    def test_targets_generate_the_algebra_and_the_ideal(self, name, degrees):
        Lm = multi_current(catalog.load(name).algebra, degrees)
        invariance, ideal = generating_targets(Lm)
        assert invariance == sorted(invariance) and ideal == sorted(ideal)
        assert len(generated_subalgebra(Lm, invariance)) == Lm.dim
        ideal_idx = {Lm.basis.index(b) for b in nilpotent_ideal(Lm)}
        assert set(ideal) <= ideal_idx
        span = generated_subalgebra(Lm, ideal)
        assert len(span) == len(ideal_idx)
        assert all(set(v) <= ideal_idx for v in span)

    def test_perfect_base_needs_two_grades(self, sl3):
        Lm = takiff(sl3.algebra, 4)
        invariance, ideal = generating_targets(Lm)
        assert (len(invariance), len(ideal)) == (16, 8)
        assert [Lm.basis[i] for i in ideal] == [f"{b}@1" for b in sl3.algebra.basis]

    def test_abelian_quotient_adds_its_columns_at_every_grade(self, heis1):
        # [heis1, heis1] = span(z), so x and y are needed at every grade
        Lm = takiff(heis1.algebra, 3)
        invariance, ideal = generating_targets(Lm)
        assert [Lm.basis[i] for i in invariance] == [
            "x@0", "y@0", "z@0", "x@1", "y@1", "z@1", "x@2", "y@2", "x@3", "y@3"]
        assert ideal == invariance[3:]

    def test_requires_grading(self, sl2):
        with pytest.raises(AlgebraError):
            generating_targets(sl2.algebra)


class TestPointSplitting:
    def test_roundtrip(self, sl3):
        Lm = takiff(sl3.algebra, 2)
        r = sampling.rng(5, 23)
        comps = sampling.random_components(sl3.algebra.basis, 2, r)
        flat = flatten_point(Lm, comps)
        assert split_point(Lm, flat) == list(comps)

    @pytest.mark.parametrize("degrees", [(2,), (1, 2), (2, 1, 1)])
    def test_flatten_keys_follow_graded_varset(self, sl2, degrees):
        inner = multi_current(sl2.algebra, degrees[:-1]) if len(degrees) > 1 else sl2.algebra
        m = degrees[-1]
        Lm = multi_current(sl2.algebra, degrees)
        comps = sampling.random_components(inner.basis, m, sampling.rng(5, 24))
        flat = flatten_point(Lm, comps)
        assert list(flat) == list(graded_varset(inner, m)) == list(Lm.basis)
        assert flat == {graded_name(b, j): comps[j][b]
                        for j in range(m + 1) for b in inner.basis}

    def test_flatten_on_a_loaded_basis_out_of_grade_order(self, sl2, tmp_path):
        Lm = takiff(sl2.algebra, 2)
        order = [7, 2, 3, 0, 8, 5, 1, 6, 4]   # h@2 f@0 e@1 e@0 f@2 f@1 h@0 e@2 h@1
        d = algio.algebra_to_dict(Lm)
        d["basis"] = [Lm.basis[k] for k in order]
        for entry in d["brackets"]:
            entry["pair"] = [order.index(k) for k in entry["pair"]]
        algio.dump_json(tmp_path / "shuffled.json", d)
        loaded, _, _ = algio.load_algebra_file(tmp_path / "shuffled.json")
        assert loaded.basis[:2] == ("h@2", "f@0")
        comps = sampling.random_components(sl2.algebra.basis, 2, sampling.rng(5, 25))
        flat = flatten_point(loaded, comps)
        assert flat == flatten_point(Lm, comps)
        # grade by grade, each grade in the order of the grade-0 names: f, e, h
        assert list(flat) == [graded_name(b, j) for j in range(3) for b in "feh"]

    def test_flatten_refuses_wrong_count_and_wrong_keys(self, sl2):
        L1 = takiff(sl2.algebra, 1)
        good = {"e": 1, "h": 2, "f": 3}
        for comps in ([good], [good, good, good]):
            with pytest.raises(AlgebraError, match="expected 2 components"):
                flatten_point(L1, comps)
        for bad in ({"e": 1, "h": 2}, {**good, "x": 0}, {"e": 1, "h": 2, "x": 3}):
            with pytest.raises(AlgebraError, match="component 1 must assign exactly"):
                flatten_point(L1, [good, bad])

    def test_split_element_matches_grades(self, sl2):
        Lm = takiff(sl2.algebra, 1)
        x = {"e@0": Fraction(2), "f@1": Fraction(-1)}
        parts = split_element(Lm, x)
        assert parts[0] == {"e": Fraction(2)}
        assert parts[1] == {"f": Fraction(-1)}


class TestCoadjoint:
    def test_ad_star_pairing_identity(self, sl2):
        # <ad*(x) xi, y> = -<xi, [x, y]> on the base algebra
        L = sl2.algebra
        for trial in range(20):
            r = sampling.rng(5, 29, trial)
            xi = sampling.random_coords(L.basis, r)
            x = {b: Fraction(r.randint(-4, 4)) for b in L.basis}
            y_name = L.basis[r.randint(0, L.dim - 1)]
            moved = ad_star(L, x, xi)
            lhs = moved[y_name]
            xe = {L.basis.index(b): c for b, c in x.items()}
            ye = {L.basis.index(y_name): Fraction(1)}
            br = bracket_elements(L, xe, ye)
            rhs = -sum(xi[L.basis[k]] * c for k, c in br.items())
            assert lhs == rhs

    @pytest.mark.parametrize("name,m", [("sl2", 1), ("sl2", 2), ("heis1", 2), ("sl3", 1)])
    def test_both_routes_agree(self, name, m):
        L = catalog.load(name).algebra
        Lm = takiff(L, m)
        for trial in range(25):
            r = sampling.rng(5, 31, catalog.NAMES.index(name), m, trial)
            comps = sampling.random_components(L.basis, m, r)
            x = {b: Fraction(r.randint(-3, 3)) for b in Lm.basis}
            assert coadjoint_apply(Lm, x, comps) == \
                coadjoint_apply_generic(Lm, x, comps)

    def test_heisenberg_fixed_points(self, heis1):
        # With both z-coordinates zero, every coadjoint direction vanishes.
        Lm = takiff(heis1.algebra, 1)
        comps = [{"x": Fraction(3), "y": Fraction(1), "z": Fraction(0)},
                 {"x": Fraction(-2), "y": Fraction(5), "z": Fraction(0)}]
        for b in Lm.basis:
            moved = coadjoint_apply(Lm, {b: Fraction(1)}, comps)
            assert all(not v for comp in moved for v in comp.values()), b

    def test_heisenberg_moves_when_centre_is_charged(self, heis1):
        Lm = takiff(heis1.algebra, 1)
        comps = [{"x": Fraction(0), "y": Fraction(0), "z": Fraction(1)},
                 {"x": Fraction(0), "y": Fraction(0), "z": Fraction(0)}]
        moved = coadjoint_apply(Lm, {"x@0": Fraction(1)}, comps)
        assert any(v for comp in moved for v in comp.values())

    def test_shift_structure_of_graded_action(self, sl2):
        # Acting by x@1 reads only the component one grade up.
        Lm = takiff(sl2.algebra, 1)
        r = sampling.rng(5, 37)
        comps = sampling.random_components(sl2.algebra.basis, 1, r)
        moved = coadjoint_apply(Lm, {"e@1": Fraction(1)}, comps)
        base_moved = ad_star(sl2.algebra, {"e": Fraction(1)}, comps[1])
        assert moved[0] == base_moved
        assert all(not v for v in moved[1].values())
