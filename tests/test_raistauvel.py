from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from takiffalg import catalog, liealg, linalg, nilfiber, raistauvel, sampling, verify
from takiffalg.liealg import (
    AlgebraError,
    HomogeneityError,
    InvariantSet,
    kirillov_matrix,
    kirillov_rank_at,
    omega_test,
)
from takiffalg.polyring import Polynomial, jet_substitute, parse_poly
from takiffalg.report import FAIL
from takiffalg.raistauvel import (
    InvariantFamily,
    build_family,
    family_rank_at,
)
from takiffalg.takiff import graded_name, graded_varset, takiff

from oracles import EpsValue, bareiss_rank, eval_poly_eps, graded_parts, naive_rank, poisson_bracket
from oracles import gradient_at as oracle_gradient_at
from oracles import derivative_identity_defect as oracle_identity_defect
from oracles import family_degree_sum, flatten_point, random_components, weight_defect
from oracles import kirillov_matrix as oracle_kirillov_matrix
from test_verify import _structural_and_exact


def _dual_number_mismatches(name, *degrees) -> list:
    """(trial, i, j) wherever F_i^j of the built family disagrees with the oracle.

    The family is the last level of the catalog entry ``name`` truncated
    at ``degrees`` in turn, so its base may itself be a family over the
    previous level.  The oracle evaluates f_i at the dual-number point
    sum_j eps^j xi_{m-j} and reads off the eps^j coefficient; 8 seeded
    integer points per case.
    """
    fam = catalog.load(name).invariants
    for m in degrees:
        fam = build_family(fam, m)
    base, Lm = fam.base, fam.algebra
    L = base.algebra
    mismatches = []
    for trial in range(8):
        r = sampling.rng(13, 41, catalog.NAMES.index(name), *degrees, trial)
        comps = random_components(L.basis, m, r, bound=9)
        flat = flatten_point(Lm, comps)
        eps_point = {
            b: EpsValue(m, [flat[f"{b}@{m - j}"] for j in range(m + 1)])
            for b in L.basis
        }
        for i, j, F in fam.members():
            want = eval_poly_eps(base.polys[i - 1], eps_point)
            if F.evaluate(flat) != want.coeffs[j]:
                mismatches.append((trial, i, j))
    return mismatches


def lowest_component(Lm, F, components):
    """Lowest nonzero graded component of (dF)_xi, as (grade, base vector).

    The grade-g part of the differential is the vector of partials with
    respect to the grade-g variables, in base-name order; a vanishing
    differential gives (None, None).
    """
    g = Lm.grading
    grad = dict(zip(Lm.basis, F.gradient_at(flatten_point(Lm, components))))
    base_names = [b for b, j in map(graded_parts, Lm.basis) if j == 0]
    for k in range(g.depth + 1):
        vec = [grad[graded_name(b, k)] for b in base_names]
        if any(vec):
            return k, vec
    return None, None


class TestExpansion:
    def test_sl2_frozen_strings(self, sl2_family_m1):
        fam = sl2_family_m1
        vs = fam.member(1, 0).varset
        assert fam.member(1, 0) == parse_poly("h@1^2 + 4*e@1*f@1", vs)
        assert fam.member(1, 1) == parse_poly("4*f@0*e@1 + 2*h@0*h@1 + 4*e@0*f@1", vs)
        # canonical printed forms are part of the file format; freeze them
        assert str(fam.member(1, 0)) == "h@1^2 + 4*e@1*f@1"
        assert str(fam.member(1, 1)) == "4*f@0*e@1 + 2*h@0*h@1 + 4*e@0*f@1"

    def test_heisenberg_centre_expands_to_coordinates(self, heis1):
        comps = build_family(heis1.invariants, 2).polys
        vs = graded_varset(heis1.algebra, 2)
        assert comps == (parse_poly("z@2", vs), parse_poly("z@1", vs),
                         parse_poly("z@0", vs))

    def test_the_empty_set_expands_to_the_empty_family(self, monkeypatch, sl2):
        # the empty set is invariant and independent everywhere: its family
        # is what an uncertified verify step holds, and nothing is expanded
        calls = []
        monkeypatch.setattr(raistauvel, "jet_substitute", lambda *args: calls.append(args))
        empty = InvariantSet(algebra=sl2.algebra, polys=())
        fam = build_family(empty, 2)
        assert (fam.polys, fam.l, fam.base, fam.depth) == ((), 0, empty, 2)
        assert fam.algebra == takiff(sl2.algebra, 2)
        assert build_family(fam, 1).polys == () and calls == []

    @pytest.mark.parametrize("name,degrees", [("sl3", (4,)), ("sl3", (16,)), ("slnV3", (3,)),
                                              ("heis2", (5,)), ("sl2", (1, 3))])
    def test_the_term_count_is_the_family_size(self, monkeypatch, name, degrees):
        # the budget counts by arithmetic the terms the expansion writes
        fs = block_family(name, degrees[:-1])
        m = degrees[-1]
        size = sum(len(F.terms) for F in build_family(fs, m).polys)
        monkeypatch.setattr(raistauvel, "MAX_FAMILY_TERMS", size - 1)
        with pytest.raises(AlgebraError, match=f"<{m}> would have {size} terms, past the "
                                               f"budget of {size - 1}"):
            build_family(fs, m)
        monkeypatch.setattr(raistauvel, "MAX_FAMILY_TERMS", size)
        assert sum(len(F.terms) for F in build_family(fs, m).polys) == size

    def test_a_family_past_the_budget_is_refused_before_expanding(self, monkeypatch, sl3):
        # takiff admits sl3<135>; its family would hold 4,055,732 terms
        calls = []
        monkeypatch.setattr(raistauvel, "jet_substitute", lambda *args: calls.append(args))
        with pytest.raises(AlgebraError, match=r"sl3<135> would have 4055732 terms"):
            build_family(sl3.invariants, 135)
        assert calls == []

    def test_rejects_inhomogeneous_and_foreign(self, sl2):
        # an inhomogeneous polynomial never reaches the expansion: the
        # invariant set refuses it; a set of another algebra cannot be
        # written, as the family is built on the set's own algebra
        with pytest.raises(HomogeneityError):
            InvariantSet(algebra=sl2.algebra,
                         polys=(parse_poly("h^2 + e", sl2.algebra.basis),))

    def test_member_ordering_is_eps_power_major(self, sl3):
        fam = build_family(sl3.invariants, 1)
        order = [(i, j) for i, j, _ in fam.members()]
        assert order == [(1, 0), (2, 0), (1, 1), (2, 1)]
        assert fam.l == 2 and fam.depth == 1

    def test_triangularity_and_degrees(self, sl3):
        m = 1
        fam = build_family(sl3.invariants, m)
        for i, j, F in fam.members():
            assert F.degree() == fam.base.polys[i - 1].degree()
            assert F.is_homogeneous()
            assert min(graded_parts(F.varset[k])[1] for mono in F.terms for k, _ in mono) >= m - j

    @pytest.mark.parametrize("name,m", [
        ("sl2", 1), ("sl2", 2), ("sl2", 3), ("sl3", 1),
        ("heis1", 3), ("heis2", 2), ("slnV2", 2),
        # the benchmark's shapes
        ("sl3", 4), ("slnV3", 2),
    ])
    def test_against_dual_number_oracle(self, name, m):
        assert _dual_number_mismatches(name, m) == []

    def test_an_iterated_family_against_the_dual_number_oracle(self):
        # sl2<1,1>: the index rows run over the variables of sl2<1>, no
        # catalog varset
        assert _dual_number_mismatches("sl2", 1, 1) == []

    @pytest.mark.parametrize("name,m,grade0", [
        ("sl2", 1, True), ("sl2", 3, True), ("sl2", 3, False), ("sl3", 1, True),
        ("sl3", 2, False), ("slnV2", 2, True), ("slnV2", 2, False)])
    def test_a_dropped_jet_term_is_refused_or_fails_the_oracle(self, monkeypatch, name, m,
                                                               grade0):
        # `verify` certifies invariance from the base on the trust that
        # build_family is the jet expansion; the family's refusal and this
        # comparison hold that trust, so a jet_substitute that loses one term
        # of F^m must meet one of them.  A lost term with a grade-0 factor
        # changes a diagonal partial and is refused; one free of grade 0
        # keeps every degree, weight and diagonal partial, and only the
        # oracle sees it
        n = catalog.load(name).algebra.dim

        def dropping(*args):
            out = jet_substitute(*args)
            top = out[-1]
            lost = next(mono for mono in top.terms if (mono[0][0] < n) == grade0)
            out[-1] = Polynomial(top.varset, {mono: c for mono, c in top.terms.items()
                                              if mono != lost})
            return out

        monkeypatch.setattr(raistauvel, "jet_substitute", dropping)
        if grade0:
            with pytest.raises(AlgebraError, match=rf"family entry \(1,{m}\): the partial"):
                _dual_number_mismatches(name, m)
        else:
            assert _dual_number_mismatches(name, m) != []


def with_member(fam, i, j, F):
    """The fields of fam with F in place of F_i^j: a draft the family may refuse."""
    polys = list(fam.polys)
    polys[j * len(fam.base) + i - 1] = F
    return SimpleNamespace(algebra=fam.algebra, base=fam.base, polys=tuple(polys))


def refusal_pattern(draft) -> str | None:
    """The refusal the oracles expect for a draft family, as a regex; None for none.

    Every term of the draft must have its row's degree.  The family sweeps
    its members in `members` order, each member's terms before its
    partials, so a weight defect is named first unless the identity breaks
    in an earlier member.
    """
    weight, identity = weight_defect(draft), oracle_identity_defect(draft)
    if weight is not None and (identity is None or weight[1::-1] <= identity[1::-1]):
        i, j, mono = weight
        return rf"family entry \({i},{j}\) has the term '-?([0-9/]+\*)?{re.escape(mono)}'"
    if identity is not None:
        i, j, variable = identity
        return rf"family entry \({i},{j}\): the partial in '{re.escape(variable)}'"
    return None


def refusal(draft) -> str:
    """The message InvariantFamily refuses a draft with; it names the oracles' defect."""
    pattern = refusal_pattern(draft)
    assert pattern is not None
    with pytest.raises(AlgebraError, match=pattern) as info:
        InvariantFamily(algebra=draft.algebra, polys=draft.polys, base=draft.base)
    return str(info.value)


class TestFamilyValidation:
    def test_member_count_is_enforced(self, sl2, sl2_family_m1):
        fam = sl2_family_m1
        with pytest.raises(AlgebraError, match="1 members, expected 2 for 1 base "
                                               "invariants at depth 1"):
            InvariantFamily(algebra=fam.algebra, polys=(fam.member(1, 0),), base=fam.base)
        with pytest.raises(AlgebraError, match="4 members, expected 2"):
            InvariantFamily(algebra=fam.algebra, polys=fam.polys * 2, base=fam.base)

    def test_an_algebra_that_is_no_truncation_of_the_base_is_refused(self, sl2, sl3,
                                                                    sl2_family_m1):
        fam = sl2_family_m1
        with pytest.raises(AlgebraError, match="algebra sl2 carries no truncation grading"):
            InvariantFamily(algebra=sl2.algebra, polys=fam.polys, base=fam.base)
        with pytest.raises(AlgebraError, match=r"algebra sl3<1> is not a truncation of sl2"):
            InvariantFamily(algebra=takiff(sl3.algebra, 1), polys=fam.polys, base=fam.base)

    def test_a_family_is_the_invariant_set_of_its_truncation(self, sl3):
        fam = build_family(sl3.invariants, 2)
        assert isinstance(fam, InvariantSet)
        assert len(fam) == 6 and fam.algebra.label == "sl3<2>"
        assert fam.polys == tuple(F for _, _, F in fam.members())
        assert [fam.member(i, j) for i, j, _ in fam.members()] == list(fam.polys)
        assert fam.polys[:2] == tuple(
            build_family(InvariantSet(algebra=sl3.algebra, polys=(f,)), 2).polys[0]
            for f in sl3.invariants.polys)

    def test_triangularity_is_enforced(self, sl2, sl2_family_m1):
        fam = sl2_family_m1
        swapped = (fam.member(1, 1), fam.member(1, 0))
        with pytest.raises(AlgebraError, match="weight 1, expected degree 2 and weight 0"):
            InvariantFamily(algebra=fam.algebra, polys=swapped, base=fam.base)

    def test_a_member_of_the_wrong_degree_is_refused_by_name(self, sl2_family_m1):
        fam = sl2_family_m1
        F = fam.member(1, 0) + parse_poly("e@1", fam.algebra.basis)
        with pytest.raises(AlgebraError) as info:
            InvariantFamily(algebra=fam.algebra, polys=(F, fam.member(1, 1)), base=fam.base)
        assert str(info.value) == ("family entry (1,0) has the term 'e@1' of degree 1 "
                                   "and weight 0, expected degree 2 and weight 0")

    @pytest.mark.parametrize("m,j,factor,extra,message", [
        # wrong weights: no grade-0 factor in F^1, a grade-0 square in F^2
        (1, 1, 1, "e@1^2", "(1,1) has the term 'e@1^2' of degree 2 and weight 0, "
                           "expected degree 2 and weight 1"),
        (2, 2, 1, "h@0^2", "(1,2) has the term 'h@0^2' of degree 2 and weight 4, "
                           "expected degree 2 and weight 2"),
        # wrong diagonal partials, every degree and weight right
        (2, 0, 2, "0", "(1,0): the partial in 'e@2' is not df_1/de at grade 2"),
        (2, 1, 2, "0", "(1,1): the partial in 'e@1' is not df_1/de at grade 2"),
        (2, 2, 1, "e@0*e@2", "(1,2): the partial in 'e@0' is not df_1/de at grade 2"),
        (1, 1, 1, "e@0*h@1", "(1,1): the partial in 'e@0' is not df_1/de at grade 1"),
    ])
    def test_a_member_off_the_expansion_is_refused_by_name(self, m, j, factor, extra,
                                                           message):
        fam = block_family("sl2", (m,))
        F = fam.member(1, j)
        assert refusal(with_member(fam, 1, j, F * factor + parse_poly(extra, F.varset))) \
            == "family entry " + message


class TestDifferentials:
    def test_lowest_component_of_first_order_member(self, sl2, sl2_family_m1):
        fam = sl2_family_m1
        Lm = fam.algebra
        xi0 = {"e": Fraction(2), "h": Fraction(-1), "f": Fraction(3)}
        xi1 = {"e": Fraction(1), "h": Fraction(0), "f": Fraction(0)}
        dC_at_xi1 = sl2.invariants.polys[0].gradient_at(xi1)
        g0, v0 = lowest_component(Lm, fam.member(1, 0), [xi0, xi1])
        g1, v1 = lowest_component(Lm, fam.member(1, 1), [xi0, xi1])
        # F^0 depends only on the top block; F^1 sees grade 0 through the same vector
        assert (g0, v0) == (1, dC_at_xi1)
        assert (g1, v1) == (0, dC_at_xi1)

    def test_lowest_component_vanishes_with_top_block(self, sl2, sl2_family_m1):
        fam = sl2_family_m1
        Lm = fam.algebra
        xi0 = {"e": Fraction(2), "h": Fraction(-1), "f": Fraction(3)}
        zero = {b: Fraction(0) for b in sl2.algebra.basis}
        assert lowest_component(Lm, fam.member(1, 0), [xi0, zero]) == (None, None)
        g1, v1 = lowest_component(Lm, fam.member(1, 1), [xi0, zero])
        assert g1 == 1
        assert v1 == sl2.invariants.polys[0].gradient_at(xi0)

    def test_jacobian_profile_on_regular_point(self, sl2_family_m1):
        fam = sl2_family_m1
        xi0 = {"e": Fraction(1), "h": Fraction(2), "f": Fraction(-1)}
        xi1 = {"e": Fraction(0), "h": Fraction(1), "f": Fraction(0)}
        assert family_rank_at(fam, flatten_point(fam.algebra, [xi0, xi1])) == 2
        # F^0 has no grade-0 partials: its differential sits in the top block
        assert lowest_component(fam.algebra, fam.member(1, 0),
                                [xi0, xi1])[0] == 1

    def test_jacobian_drops_rank_off_omega(self, sl2_family_m1):
        fam = sl2_family_m1
        xi0 = {"e": Fraction(1), "h": Fraction(2), "f": Fraction(-1)}
        zero = {b: Fraction(0) for b in fam.base.algebra.basis}
        assert family_rank_at(fam, flatten_point(fam.algebra, [xi0, zero])) < 2

    def test_sl3_depth2_full_rank_at_seeded_points(self, sl3):
        fam = build_family(sl3.invariants, 2)
        for trial in range(5):
            r = sampling.rng(13, 43, trial)
            comps = random_components(sl3.algebra.basis, 2, r, bound=20)
            assert family_rank_at(fam, flatten_point(fam.algebra, comps)) == 6


# (catalog entry, truncation degrees): every entry with invariants at
# m = 1..3, and the second level of sl2<1,1>
BLOCK_CASES = [(name, (m,)) for name in catalog.NAMES if name != "affine2"
               for m in (1, 2, 3)] + [("sl2", (1, 1))]

# base names spanning a coordinate subspace on which every invariant vanishes
NILCONE_SUPPORT = {
    "sl2": ("e",),
    "sl3": ("e12", "e23", "e13"),
    "heis1": ("x", "y"),
    "heis2": ("x1", "x2", "y1", "y2"),
    "slnV2": ("e", "h", "f", "v11", "v12"),
    "slnV3": ("h1", "h2", "e12", "e23", "e13", "e21", "e32", "e31",
              "v11", "v12", "v13", "v21", "v22", "v23"),
    "nilrad_sl3": ("e12", "e23"),
    "sl2<1>": ("e@0", "h@0", "f@0"),
}


@lru_cache(maxsize=None)
def block_family(name, degrees):
    fs = catalog.load(name).invariants
    for m in degrees:
        fs = build_family(fs, m)
    return fs


class TestBlockTriangularity:
    @pytest.mark.parametrize("name,degrees", BLOCK_CASES)
    def test_expanded_families_satisfy_the_oracles(self, name, degrees):
        fam = block_family(name, degrees)
        assert weight_defect(fam) is None
        assert oracle_identity_defect(fam) is None

    @pytest.mark.parametrize("name,degrees", BLOCK_CASES)
    @settings(max_examples=6)
    @given(data=st.data())
    def test_the_refusal_names_the_oracle_defect(self, name, degrees, data):
        # each corruption adds c * v^d to F_i^j, d = deg f_i: v = b@(m-j) on
        # the diagonal weighs jd, b@m off it weighs 0, and either changes the
        # partial in v
        fam = block_family(name, degrees)
        m, base = fam.depth, fam.base.algebra.basis
        corruptions = data.draw(st.lists(st.tuples(
            st.integers(1, fam.l), st.integers(0, m), st.sampled_from(base),
            st.sampled_from([1, -2, Fraction(1, 3)]), st.booleans()), min_size=1, max_size=2))
        draft = fam
        for i, j, b, c, diagonal in corruptions:
            F = draft.polys[j * fam.l + i - 1]
            v = F.varset.index(graded_name(b, m - j if diagonal else m))
            term = Polynomial(F.varset, {((v, fam.base.polys[i - 1].degree()),): c})
            draft = with_member(draft, i, j, F + term)
        message = refusal(draft)
        if len(corruptions) == 1:
            i, j, b, _, diagonal = corruptions[0]
            d = fam.base.polys[i - 1].degree()
            v = graded_name(b, m - j if diagonal else m)
            if j == 0 or diagonal and d == 1:
                assert f"({i},{j}): the partial in '{v}'" in message
            else:
                assert f"({i},{j}) has the term" in message
                assert f"{v}^{d}' of" in message if d > 1 else f"{v}' of" in message

    @pytest.mark.parametrize("kind", ["random", "zero", "nilcone"])
    @pytest.mark.parametrize("name,degrees", BLOCK_CASES)
    @settings(max_examples=5)
    @given(data=st.data())
    def test_family_rank_and_kirillov_rank_follow_the_top(self, name, degrees, kind, data):
        # the two block triangles, cross-checked against full ranks: random,
        # zero and null-cone tops, so the shortcut both fires and falls back
        fam = block_family(name, degrees)
        L, Lm, m = fam.base.algebra, fam.algebra, fam.depth
        coords = st.lists(st.integers(-9, 9), min_size=L.dim, max_size=L.dim)
        comps = [dict(zip(L.basis, data.draw(coords))) for _ in range(m)]
        support = {"random": L.basis, "zero": (), "nilcone": NILCONE_SUPPORT[L.label]}[kind]
        top = {b: v if b in support else 0 for b, v in zip(L.basis, data.draw(coords))}
        if kind == "nilcone":
            assert not any(f.evaluate(top) for f in fam.base.polys)
        flat = flatten_point(Lm, comps + [top])
        full = family_rank_at(fam, flat) == (m + 1) * fam.l
        assert full == omega_test(fam.base, top)
        assert fam.kirillov_rank_at(flat) == linalg.rank(kirillov_matrix(Lm, flat))

    @pytest.mark.parametrize("m", [1, 2])
    def test_a_top_of_rank_n_minus_l_outside_omega_falls_back(self, monkeypatch, sl3, m):
        # four sl3 invariants, two of them products: rank K(e12*) = 8 - 4, but
        # the differentials are dependent everywhere, so the full rank exceeds
        # (m+1)(n-l) and the block triangle's precondition fails; verify finds
        # no Omega point and certifies the empty set, whose block triangle
        # decides no top of sl3 (ind sl3 = 2), so every L<m> matrix is ranked
        C2, C3 = sl3.invariants.polys
        fs = InvariantSet(algebra=sl3.algebra, polys=(C2, C3, C2 * C2, C2 * C3))
        fam = build_family(fs, m)
        comps = random_components(sl3.algebra.basis, m, sampling.rng(13, 53))
        comps[m] = {b: int(b == "e12") for b in sl3.algebra.basis}
        assert kirillov_rank_at(sl3.algebra, comps[m]) == sl3.algebra.dim - fam.l
        flat = flatten_point(fam.algebra, comps)
        assert linalg.rank(kirillov_matrix(fam.algebra, flat)) > \
            (m + 1) * (sl3.algebra.dim - fam.l)
        rep, calls, exact = _structural_and_exact(monkeypatch, sl3.algebra, fs, m,
                                                  transfer_samples=20)
        (jacobian,) = [c for c in rep.checks if c.name == "jacobian-rank-on-omega"]
        assert jacobian.status == FAIL
        assert calls and set(calls) == {0}
        assert rep.to_json() == exact.to_json()

    def test_a_regular_top_in_omega_builds_no_truncated_matrix(self, monkeypatch, sl3):
        fam = block_family("sl3", (2,))
        ranked = []

        def spy(L, point):
            ranked.append(L.label)
            return linalg.rank(kirillov_matrix(L, point))

        monkeypatch.setattr(liealg, "kirillov_rank_at", spy)
        comps = random_components(sl3.algebra.basis, 2, sampling.rng(13, 47))
        assert fam.kirillov_rank_at(flatten_point(fam.algebra, comps)) == 18
        assert ranked == ["sl3"]
        comps[2] = {b: 0 for b in sl3.algebra.basis}
        fam.kirillov_rank_at(flatten_point(fam.algebra, comps))
        assert ranked == ["sl3", "sl3", "sl3<2>"]


# iterated families whose family_rank_at recurses down to the first base
ITERATED_CASES = [("sl2", (1, 1, 1)), ("heis1", (2, 3)), ("slnV2", (1, 2))]


def deepest_top_names(name, degrees):
    """{b: the name of b's coordinate at the top grade of every level}."""
    base = catalog.load(name).algebra.basis
    names = base
    for m in degrees:
        names = [graded_name(v, m) for v in names]
    return dict(zip(base, names))


def fresh_chain(name, degrees):
    """The families of every level, built anew, so no member has a gradient plan."""
    fs, chain = catalog.load(name).invariants, []
    for m in degrees:
        fs = build_family(fs, m)
        chain.append(fs)
    return chain


class TestFamilyRankFromTheBase:
    """family_rank_at ranks the first base at the deepest top, members only below full rank."""

    @pytest.mark.parametrize("kind", ["random", "zero", "nilcone"])
    @pytest.mark.parametrize("name,degrees", ITERATED_CASES)
    @settings(max_examples=5)
    @given(data=st.data())
    def test_the_rank_equals_the_member_jacobian(self, name, degrees, kind, data):
        # the oracle ranks every member gradient; a zero or null-cone deepest
        # top is singular for sl2 and slnV2, so every level falls back
        fam = block_family(name, degrees)
        entry = catalog.load(name)
        Lm, deepest = fam.algebra, deepest_top_names(name, degrees)
        flat = dict(zip(Lm.basis, data.draw(st.lists(
            st.integers(-9, 9), min_size=Lm.dim, max_size=Lm.dim))))
        support = {"random": deepest, "zero": (), "nilcone": NILCONE_SUPPORT[name]}[kind]
        for b, v in deepest.items():
            if b not in support:
                flat[v] = 0
        top = {b: flat[v] for b, v in deepest.items()}
        rank = naive_rank([oracle_gradient_at(F, flat) for F in fam.polys])
        assert family_rank_at(fam, flat) == rank
        assert (rank == len(fam)) == omega_test(entry.invariants, top)

    @pytest.mark.parametrize("kind", ["random", "zero", "nilcone"])
    @pytest.mark.parametrize("name,degrees", ITERATED_CASES)
    @settings(max_examples=5)
    @given(data=st.data())
    def test_the_kirillov_rank_equals_the_full_matrix(self, name, degrees, kind, data):
        # the family's kirillov_rank_at recurses to the first base at the deepest top;
        # a zero deepest top is singular, so the first family ranks its own
        # algebra and every level above decides from that rank or falls back.
        # A rank counts by either route of `InvariantSet.kirillov_rank_at`
        # (the block B(xi) or the Kirillov matrix); a matrix built outside
        # it counts too
        fam = block_family(name, degrees)
        Lm, deepest = fam.algebra, deepest_top_names(name, degrees)
        flat = dict(zip(Lm.basis, data.draw(st.lists(
            st.integers(-9, 9), min_size=Lm.dim, max_size=Lm.dim))))
        support = {"random": deepest, "zero": (), "nilcone": NILCONE_SUPPORT[name]}[kind]
        for b, v in deepest.items():
            if b not in support:
                flat[v] = 0
        ranked, real = [], InvariantSet.kirillov_rank_at
        matrix, built = liealg.kirillov_matrix, []

        def spy(fs, point):
            ranked.append(fs.algebra.dim)
            return real(fs, point)

        def matrix_spy(L, point):
            built.append(L.dim)
            return matrix(L, point)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(InvariantSet, "kirillov_rank_at", spy)
            patch.setattr(liealg, "kirillov_matrix", matrix_spy)
            rank = fam.kirillov_rank_at(flat)
        assert set(built) <= set(ranked)
        assert rank == linalg.rank(kirillov_matrix(Lm, flat))
        first = catalog.load(name).algebra.dim
        assert ranked[0] == first
        if kind == "zero":
            assert ranked[1] == first * (degrees[0] + 1)

    @pytest.mark.parametrize("name,degrees", [("sl2", (2,))] + ITERATED_CASES)
    def test_an_omega_top_builds_no_member_plan(self, monkeypatch, name, degrees):
        chain = fresh_chain(name, degrees)
        fam, base = chain[-1], chain[0].base
        Lm, deepest = fam.algebra, deepest_top_names(name, degrees)
        flat = dict(zip(Lm.basis, sampling.random_coords(Lm.basis, sampling.rng(13, 59))))
        assert omega_test(base, {b: flat[v] for b, v in deepest.items()})
        real, graded = Polynomial.gradient_at, []

        def spy(self, point):
            graded.append(self)
            return real(self, point)

        monkeypatch.setattr(Polynomial, "gradient_at", spy)
        assert family_rank_at(fam, flat) == len(fam)
        assert graded and all(any(F is f for f in base.polys) for F in graded)
        assert all(F._plan is None for level in chain for F in level.polys)
        if name != "heis1":    # z has a nonzero differential everywhere
            graded.clear()
            for v in deepest.values():
                flat[v] = 0
            assert family_rank_at(fam, flat) < len(fam)
            assert any(F is G for F in graded for G in fam.polys)


class TestFamilyIsTheNextInvariantSet:
    """A family enters the next level as it stands: checked once, degrees by arithmetic."""

    @pytest.mark.parametrize("run", ["multi-sl3-1,1,1", "sl2-chain-3"])
    def test_no_member_is_checked_for_homogeneity(self, monkeypatch, sl3, run):
        families, checked = [], []
        real_build, real_check = raistauvel.build_family, Polynomial.is_homogeneous

        def build(*args):
            fam = real_build(*args)
            families.append(fam)
            return fam

        def spy(self):
            checked.append(self)
            return real_check(self)

        monkeypatch.setattr(raistauvel, "build_family", build)
        monkeypatch.setattr(nilfiber, "build_family", build)
        monkeypatch.setattr(Polynomial, "is_homogeneous", spy)
        if run == "sl2-chain-3":
            nilfiber.sl2_chain(levels=3)
        else:
            verify.verify_multi_current(sl3.algebra, sl3.invariants, [1, 1, 1])
        assert len(families) == (3 if run.startswith("multi") else 2)
        members = {id(F) for fam in families for _, _, F in fam.members()}
        assert not [F for F in checked if id(F) in members]

    def test_a_family_is_a_read_only_value(self, sl2_family_m1):
        fam = sl2_family_m1
        for name in ("algebra", "polys", "base"):
            with pytest.raises(AttributeError):
                setattr(fam, name, getattr(fam, name))
        copy = InvariantFamily(algebra=fam.algebra, polys=list(fam.polys), base=fam.base)
        assert copy == InvariantFamily(fam.algebra, fam.polys, fam.base) == fam
        assert type(copy.polys) is tuple
        assert copy != InvariantSet(fam.algebra, fam.polys)

    @pytest.mark.parametrize("name,degrees", [(name, (m,)) for name in catalog.NAMES
                                              if name != "affine2" for m in (1, 2, 3)]
                             + [("heis1", (2,)), ("heis1", (2, 3))])
    def test_degrees_match_the_member_sweep(self, name, degrees):
        fam = block_family(name, degrees)
        assert fam.degrees() == tuple(F.degree() for F in fam.polys)
        assert sum(fam.degrees()) == family_degree_sum(fam)


def shift_down(F, L, m):
    """F over L<m>, free of grade 0, with every b@g renamed to b@(g-1): over L<m-1>.

    Both bases list grade 0 first and base order within a grade, so the
    rename moves every variable index down by n = dim L.
    """
    n = L.dim
    assert all(i >= n for mono in F.terms for i, _ in mono)
    return Polynomial(graded_varset(L, m - 1),
                      {tuple((i - n, e) for i, e in mono): c for mono, c in F.terms.items()})


SHIFT_CASES = [(name, (m,)) for name in catalog.NAMES if name != "affine2"
               for m in (2, 3, 4)] + [("sl2", (1, 2)), ("sl2", (1, 3))]


def _random_upper_poly(L, m, r):
    # a few monomials of degree 1..3 over the grades 1..m, coefficients in -3..3
    names = graded_varset(L, m)[L.dim:]
    text = " + ".join(f"{r.randint(-3, 3)}*" + "*".join(r.choice(names)
                                                      for _ in range(r.randint(1, 3)))
                      for _ in range(4))
    return parse_poly(text, graded_varset(L, m))


class TestGradeShift:
    """b@g -> b@(g-1) carries depth-m facts to L<m-1>, for the zero-top rank bound."""

    @pytest.mark.parametrize("name,degrees", SHIFT_CASES)
    def test_the_shift_maps_the_family_one_level_down(self, name, degrees):
        fam = block_family(name, degrees)
        low = block_family(name, degrees[:-1] + (degrees[-1] - 1,))
        L, m = fam.base.algebra, fam.depth
        # F_i^j for j <= m-1 uses the grades m-j..m >= 1 only
        assert [(i, j) for i, j, _ in low.members()] == \
            [(i, j) for i, j, _ in fam.members() if j <= m - 1]
        for i, j, F in low.members():
            assert shift_down(fam.member(i, j), L, m) == F
        assert oracle_identity_defect(low) is None

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("name", ["sl2", "sl3", "heis1", "slnV2"])
    def test_the_shift_carries_brackets_with_the_lower_grades(self, name, m):
        # {F', x@k} in L<m-1> is {F, x@k} in L<m> renamed, for k <= m-1 and
        # any F free of grade 0, invariant or not
        L = catalog.load(name).algebra
        Lm, low = takiff(L, m), takiff(L, m - 1)
        nonzero = 0
        for s in range(4):
            F = _random_upper_poly(L, m, sampling.rng(29, 5, s))
            shifted = shift_down(F, L, m)
            for k in range(m):
                for b in L.basis:
                    x = graded_name(b, k)
                    xm, xlow = Polynomial.variable(Lm.basis, x), Polynomial.variable(low.basis, x)
                    br = Polynomial(Lm.basis, poisson_bracket(Lm, F, xm))
                    assert shift_down(br, L, m) == Polynomial(
                        low.basis, poisson_bracket(low, shifted, xlow))
                    nonzero += bool(br.terms)
        assert nonzero > 0

    @pytest.mark.parametrize("name,m", [("sl2", 2), ("sl2", 3), ("heis1", 2), ("heis1", 3),
                                        ("nilrad_sl3", 2), ("sl3", 3), ("sl3", 4)])
    def test_a_zero_top_ranks_as_the_truncation_one_level_down(self, name, m):
        # oracle ranks: K of L<m> at (xi', 0) has the rank of K of L<m-1> at
        # xi', and the certified family bounds it by m(n - l)
        entry = catalog.load(name)
        L = entry.algebra
        Lm, low = takiff(L, m), takiff(L, m - 1)
        bound = m * (L.dim - len(entry.invariants))
        for s in range(3):
            lower = random_components(L.basis, m - 1, sampling.rng(31, 7, s))
            flat = flatten_point(Lm, lower + [dict.fromkeys(L.basis, 0)])
            rank = bareiss_rank(oracle_kirillov_matrix(Lm, flat))
            assert rank == bareiss_rank(oracle_kirillov_matrix(low, flatten_point(low, lower)))
            assert rank <= bound
