from __future__ import annotations

from fractions import Fraction

import pytest

from takiffalg import catalog, sampling
from takiffalg.liealg import AlgebraError, HomogeneityError
from takiffalg.polyring import parse_poly
from takiffalg.raistauvel import (
    InvariantFamily,
    build_family,
    expand_invariant,
    family_rank_at,
)
from takiffalg.takiff import flatten_point, graded_name, graded_varset

from oracles import EpsValue, eval_poly_eps


def lowest_component(Lm, F, components):
    """Lowest nonzero graded component of (dF)_xi, as (grade, base vector).

    The grade-g part of the differential is the vector of partials with
    respect to the grade-g variables, in base-name order; a vanishing
    differential gives (None, None).
    """
    g = Lm.grading
    grad = dict(zip(Lm.basis, F.gradient_at(flatten_point(Lm, components))))
    base_names = [g.base_name_of[b] for b in Lm.basis if g.grade_of[b] == 0]
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
        comps = expand_invariant(heis1.algebra, 2, heis1.invariants.polys[0])
        vs = graded_varset(heis1.algebra, 2)
        assert comps == [parse_poly("z@2", vs), parse_poly("z@1", vs),
                         parse_poly("z@0", vs)]

    def test_rejects_inhomogeneous_and_foreign(self, sl2, heis1):
        with pytest.raises(HomogeneityError):
            expand_invariant(sl2.algebra, 1,
                             parse_poly("h^2 + e", sl2.algebra.basis))
        with pytest.raises(AlgebraError):
            build_family(sl2.algebra, 1, heis1.invariants)

    def test_member_ordering_is_eps_power_major(self, sl3):
        fam = build_family(sl3.algebra, 1, sl3.invariants)
        order = [(i, j) for i, j, _ in fam.members()]
        assert order == [(1, 0), (2, 0), (1, 1), (2, 1)]
        assert fam.l == 2 and fam.depth == 1

    def test_triangularity_and_degrees(self, sl3):
        m = 1
        fam = build_family(sl3.algebra, m, sl3.invariants)
        g = fam.takiff_algebra.grading
        for i, j, F in fam.members():
            assert F.degree() == fam.base.polys[i - 1].degree()
            assert F.is_homogeneous()
            assert min(g.grade_of[v] for v in F.support()) >= m - j

    @pytest.mark.parametrize("name,m", [
        ("sl2", 1), ("sl2", 2), ("sl2", 3), ("sl3", 1),
        ("heis1", 3), ("heis2", 2), ("slnV2", 2),
    ])
    def test_against_dual_number_oracle(self, name, m):
        entry = catalog.load(name)
        L = entry.algebra
        fam = build_family(L, m, entry.invariants)
        Lm = fam.takiff_algebra
        for trial in range(8):
            r = sampling.rng(13, 41, catalog.NAMES.index(name), m, trial)
            comps = sampling.random_components(L.basis, m, r, bound=9)
            flat = flatten_point(Lm, comps)
            eps_point = {
                b: EpsValue(m, [flat[f"{b}@{m - j}"] for j in range(m + 1)])
                for b in L.basis
            }
            for i, j, F in fam.members():
                want = eval_poly_eps(entry.invariants.polys[i - 1], eps_point)
                assert F.evaluate(flat) == want.coeffs[j], (name, m, i, j)


class TestFamilyValidation:
    def test_table_shape_is_enforced(self, sl2, sl2_family_m1):
        fam = sl2_family_m1
        with pytest.raises(AlgebraError):
            InvariantFamily(takiff_algebra=fam.takiff_algebra, base=fam.base,
                            table=((fam.member(1, 0),),))

    def test_triangularity_is_enforced(self, sl2, sl2_family_m1):
        fam = sl2_family_m1
        swapped = ((fam.member(1, 1), fam.member(1, 0)),)
        with pytest.raises(AlgebraError):
            InvariantFamily(takiff_algebra=fam.takiff_algebra, base=fam.base,
                            table=swapped)

    def test_invariant_set_carries_claimed_index(self, sl2_family_m1):
        fs = sl2_family_m1.invariant_set(claimed_index=2)
        assert len(fs.polys) == 2
        assert fs.claimed_index == 2


class TestDifferentials:
    def test_lowest_component_of_first_order_member(self, sl2, sl2_family_m1):
        fam = sl2_family_m1
        Lm = fam.takiff_algebra
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
        Lm = fam.takiff_algebra
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
        assert family_rank_at(fam, flatten_point(fam.takiff_algebra, [xi0, xi1])) == 2
        # F^0 has no grade-0 partials: its differential sits in the top block
        assert lowest_component(fam.takiff_algebra, fam.member(1, 0),
                                [xi0, xi1])[0] == 1

    def test_jacobian_drops_rank_off_omega(self, sl2_family_m1):
        fam = sl2_family_m1
        xi0 = {"e": Fraction(1), "h": Fraction(2), "f": Fraction(-1)}
        zero = {b: Fraction(0) for b in fam.base.algebra.basis}
        assert family_rank_at(fam, flatten_point(fam.takiff_algebra, [xi0, zero])) < 2

    def test_sl3_depth2_full_rank_at_seeded_points(self, sl3):
        fam = build_family(sl3.algebra, 2, sl3.invariants)
        for trial in range(5):
            r = sampling.rng(13, 43, trial)
            comps = sampling.random_components(sl3.algebra.basis, 2, r, bound=20)
            assert family_rank_at(fam, flatten_point(fam.takiff_algebra, comps)) == 6
