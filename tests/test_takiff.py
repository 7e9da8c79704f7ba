from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import takiffalg.takiff
from takiffalg import algio, catalog, sampling
from takiffalg.liealg import AlgebraError, AlgebraFormatError, InvariantSet, LieAlgebra, validate
from takiffalg.polyring import Polynomial, parse_poly
from takiffalg.raistauvel import build_family
from takiffalg.takiff import (
    TakiffGrading,
    flatten_point,
    graded_name,
    graded_varset,
    multi_current,
    takiff,
)

from oracles import (
    ad_star,
    bracket,
    bracket_elements,
    coadjoint_apply,
    coadjoint_apply_generic,
    graded_parts,
    poisson_bracket,
    random_components,
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

    def test_the_size_cap_counts_names_and_bracket_entries(self, monkeypatch, sl2):
        # sl2<3> has 3 * 4 names and 3 * 4 * 5 / 2 bracket entries; an
        # abelian algebra has names alone
        monkeypatch.setattr(takiffalg.takiff, "MAX_TAKIFF_SIZE", 12 + 30)
        assert len(takiff(sl2.algebra, 3).brackets) == 30
        with pytest.raises(AlgebraError, match=r"sl2<4> would have 15 basis names and 45 "):
            takiff(sl2.algebra, 4)
        ab = LieAlgebra.create("ab2", ("x", "y"), {})
        assert takiff(ab, 20).dim == 42
        with pytest.raises(AlgebraError, match=r"ab2<21> would have 44 basis names and 0 "):
            takiff(ab, 21)
        with pytest.raises(AlgebraError, match="past the cap of 42 in all"):
            multi_current(sl2.algebra, [1, 3])

    def test_the_table_is_built_on_first_read_and_kept(self, monkeypatch, sl3):
        real, built = takiffalg.takiff._truncated_table, []
        monkeypatch.setattr(takiffalg.takiff, "_truncated_table",
                            lambda L, m: built.append(f"{L.label}<{m}>") or real(L, m))
        Lm = multi_current(sl3.algebra, [2, 2, 2])
        inner = takiff(sl3.algebra, 2)
        # the count is arithmetic: no level's table is read to size the next
        assert built == []
        assert Lm.dim == 8 * 27 and Lm.grading.depth == 2
        assert Lm.bracket_count == len(sl3.algebra.brackets) * 6 ** 3
        assert inner.bracket_count == len(sl3.algebra.brackets) * 6
        table = Lm.brackets
        assert Lm.brackets is table and len(table) == Lm.bracket_count
        # each level reads the table below it while building its own
        assert built == ["sl3<2><2><2>", "sl3<2><2>", "sl3<2>"]
        assert len(inner.brackets) == inner.bracket_count and inner.brackets is inner.brackets
        assert built[3:] == ["sl3<2>"]

    def test_a_deferred_table_needs_its_entry_count(self):
        with pytest.raises(ValueError, match="entry count"):
            LieAlgebra("x", ("a", "b"), lambda: {})
        deferred = LieAlgebra("x", ("a", "b"), lambda: {(0, 1): {0: Fraction(1)}}, entries=1)
        assert deferred == LieAlgebra.create("x", ("a", "b"), {(0, 1): {0: 1}})

    def test_grading_is_a_read_only_value(self, sl2):
        g = takiff(sl2.algebra, 2).grading
        assert g == TakiffGrading(sl2.algebra.basis, 2)
        assert g == TakiffGrading(base_basis=("e", "h", "f"), depth=2)
        assert g != TakiffGrading(base_basis=("e", "h", "f"), depth=1)
        assert g != TakiffGrading(base_basis=("e", "f", "h"), depth=2)
        for name in ("base_basis", "depth"):
            with pytest.raises(AttributeError):
                setattr(g, name, getattr(g, name))

    def test_multi_current_relabels_the_last_step(self, sl2):
        L = multi_current(sl2.algebra, [1, 2])
        last = takiff(takiff(sl2.algebra, 1), 2)
        assert L.label == "sl2<1,2>" and last.label == "sl2<1><2>"
        assert L.basis == last.basis
        assert L.brackets == last.brackets
        assert L.grading == last.grading == TakiffGrading(
            base_basis=takiff(sl2.algebra, 1).basis, depth=2)

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
        n = L.dim
        for i in range(Lm.dim):
            for j in range(Lm.dim):
                if i == j:
                    continue
                got = bracket(Lm, i, j)
                gi, gj = graded_parts(Lm.basis[i])[1], graded_parts(Lm.basis[j])[1]
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
        assert g == TakiffGrading(base_basis=("x", "y", "z"), depth=3)
        assert g.base_dim == 3
        d = g.to_dict()
        assert d["grade_of"]["z@2"] == 2
        assert d["base_name_of"]["z@2"] == "z"
        assert TakiffGrading.from_dict(d, Lm.basis) == g

    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_grading_round_trips_and_flattens_grade_major(self, name):
        L = catalog.load(name).algebra
        cases = [(L, m, takiff(L, m)) for m in (1, 2, 3)]
        cases.append((takiff(L, 1), 2, multi_current(L, [1, 2])))
        for t, (base, m, Lm) in enumerate(cases):
            g = Lm.grading
            assert TakiffGrading.from_dict(g.to_dict(), Lm.basis) == g
            comps = random_components(base.basis, m, sampling.rng(5, 26, t))
            want = dict(zip(graded_varset(base, m), (c[b] for c in comps for b in base.basis)))
            flat = flatten_point(Lm, comps)
            assert flat == want and list(flat) == list(want), (name, Lm.label)

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


@st.composite
def _tables_with_polys(draw):
    """A random bracket table and a homogeneous polynomial of degree 1..3 over its basis.

    Up to three terms with coefficients in -3..3 but 0; nothing asks the
    polynomial to be an invariant.
    """
    L = draw(_bracket_tables())
    d = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        idx = sorted(draw(st.lists(st.integers(0, L.dim - 1), min_size=d, max_size=d)))
        mono = tuple((i, idx.count(i)) for i in sorted(set(idx)))
        terms[mono] = draw(st.integers(-3, 3).filter(bool))
    return L, Polynomial(L.basis, terms)


class TestInvarianceTransfer:
    """{b@g, x@k} = [b, x]@(g+k), or 0 past grade m, so the expansion Phi(b) =
    sum_s eps^s b@(m-s) gives {Phi(f), x@k} = eps^k Phi({f, x}) mod
    eps^(m+1) for every f, with no Jacobi hypothesis; `verify` certifies
    invariance and the ideal check from the base invariants by this lemma.
    Both brackets come from the oracle; only the expansion is the package's."""

    @given(case=_tables_with_polys(), m=st.sampled_from([1, 2, 3]))
    @example(case=(_BROKEN_SL2, parse_poly("h^2 + 3*e*f", _BROKEN_SL2.basis)), m=2)
    @example(case=(_HEISENBERG, parse_poly("x*z - y^2", _HEISENBERG.basis)), m=3)
    def test_brackets_of_the_expansion_are_the_expanded_bracket(self, case, m):
        _assert_expansion_brackets(*case, m)

    @pytest.mark.parametrize("name,degrees", list(_truncations()))
    def test_the_catalog_expansions_obey_the_lemma(self, name, degrees):
        # the invariants, and x0*x1 for a polynomial that need not be one;
        # below the last degree each expansion is the next level's base
        entry = catalog.load(name)
        L = entry.algebra
        x0, x1 = (Polynomial.variable(L.basis, b) for b in L.basis[:2])
        polys = [*entry.invariants.polys, x0 * x1]
        for m in degrees[:-1]:
            polys = [F for f in polys for F in _expansion(L, m, f)]
            L = takiff(L, m)
        for f in polys:
            _assert_expansion_brackets(L, f, degrees[-1])


def _expansion(L, m, f):
    """[F^0, ..., F^m]: the family of the one polynomial f, invariant or not."""
    return build_family(InvariantSet(algebra=L, polys=(f,)), m).polys


def _assert_expansion_brackets(L, f, m):
    """{F^j, x@k} is [eps^(j-k)] of the expansion of {f, x} for j >= k, else 0."""
    Lm = takiff(L, m)
    family = _expansion(L, m, f)
    for b in L.basis:
        fx = poisson_bracket(L, f, Polynomial.variable(L.basis, b))
        want = _expansion(L, m, Polynomial(L.basis, fx)) if fx else []
        for k in range(m + 1):
            x = Polynomial.variable(Lm.basis, graded_name(b, k))
            for j, F in enumerate(family):
                expected = want[j - k].terms if want and j >= k else {}
                assert poisson_bracket(Lm, F, x) == expected, (b, k, j)


class TestPointSplitting:
    def test_roundtrip(self, sl3):
        Lm = takiff(sl3.algebra, 2)
        r = sampling.rng(5, 23)
        comps = random_components(sl3.algebra.basis, 2, r)
        flat = flatten_point(Lm, comps)
        assert split_point(Lm, flat) == list(comps)

    @pytest.mark.parametrize("degrees", [(2,), (1, 2), (2, 1, 1)])
    def test_flatten_keys_follow_graded_varset(self, sl2, degrees):
        inner = multi_current(sl2.algebra, degrees[:-1]) if len(degrees) > 1 else sl2.algebra
        m = degrees[-1]
        Lm = multi_current(sl2.algebra, degrees)
        comps = random_components(inner.basis, m, sampling.rng(5, 24))
        flat = flatten_point(Lm, comps)
        assert list(flat) == list(graded_varset(inner, m)) == list(Lm.basis)
        assert flat == {graded_name(b, j): comps[j][b]
                        for j in range(m + 1) for b in inner.basis}

    def test_a_loaded_basis_out_of_grade_order_is_refused(self, sl2, tmp_path):
        # the same algebra with its basis permuted and its pairs renumbered;
        # a grading holds only for the grade-major basis b@j at j*n + k
        Lm = takiff(sl2.algebra, 2)
        order = [7, 2, 3, 0, 8, 5, 1, 6, 4]   # h@2 f@0 e@1 e@0 f@2 f@1 h@0 e@2 h@1
        d = algio.algebra_to_dict(Lm)
        d["basis"] = [Lm.basis[k] for k in order]
        for entry in d["brackets"]:
            entry["pair"] = [order.index(k) for k in entry["pair"]]
        algio.dump_json(tmp_path / "shuffled.json", d)
        with pytest.raises(AlgebraFormatError, match="grade-major"):
            algio.load_algebra_file(tmp_path / "shuffled.json")
        del d["grading"]
        loaded, _ = algio.algebra_from_dict(d)
        assert loaded.grading is None

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(depth=3),
        lambda d: d.update(base_dim=True),
        lambda d: d["grade_of"].update({"e@1": 0}),
        lambda d: d["base_name_of"].update({"e@1": "h"}),
        lambda d: d["grade_of"].pop("f@2"),
        lambda d: d.update(extra=1),
    ], ids=["depth", "bool-base-dim", "grade", "base-name", "missing-name", "extra-key"])
    def test_a_grading_block_that_differs_from_the_layout_is_refused(self, sl2, edit):
        Lm = takiff(sl2.algebra, 2)
        d = Lm.grading.to_dict()
        edit(d)
        with pytest.raises(AlgebraFormatError):
            TakiffGrading.from_dict(d, Lm.basis)

    def test_flatten_point_requires_grading(self, sl2):
        with pytest.raises(AlgebraError, match="no truncation grading"):
            flatten_point(sl2.algebra, [{"e": 1, "h": 2, "f": 3}])

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
            comps = random_components(L.basis, m, r)
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
        comps = random_components(sl2.algebra.basis, 1, r)
        moved = coadjoint_apply(Lm, {"e@1": Fraction(1)}, comps)
        base_moved = ad_star(sl2.algebra, {"e": Fraction(1)}, comps[1])
        assert moved[0] == base_moved
        assert all(not v for v in moved[1].values())
