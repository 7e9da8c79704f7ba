from __future__ import annotations

from fractions import Fraction

import pytest

from takiffalg import catalog, sampling
from takiffalg.nilfiber import (
    NilfiberError,
    StratumSample,
    check_N1_characterization,
    equidim_diagnostic,
    fiber_dim_over,
    lemma_containment_check,
    null_fiber_member,
    sl2_chain,
    stratum_index,
)
from takiffalg.raistauvel import build_family
from takiffalg.report import FAIL, PASS


def _pt(L, **coords):
    return {b: Fraction(coords.get(b, 0)) for b in L.basis}


class TestMembership:
    def test_sl2_examples(self, sl2, sl2_family_m1):
        L = sl2.algebra
        fam = sl2_family_m1
        e_star = _pt(L, e=1)
        on = [_pt(L, e=5, h=7), e_star]
        off = [_pt(L, f=1), e_star]
        assert null_fiber_member(fam, on)
        assert not null_fiber_member(fam, off)

    def test_membership_is_conical(self, sl2, sl2_family_m1):
        L = sl2.algebra
        fam = sl2_family_m1
        for trial in range(20):
            r = sampling.rng(0, 9, trial)
            comps = [sampling.random_coords(L.basis, r, bound=30),
                     _pt(L, e=r.randint(-9, 9))]
            t = Fraction(r.randint(1, 7), r.randint(1, 7))
            scaled = [{k: t * v for k, v in c.items()} for c in comps]
            assert null_fiber_member(fam, comps) == null_fiber_member(fam, scaled)


class TestStrata:
    def test_sl2_stratum_indices(self, sl2):
        L, fs = sl2.algebra, sl2.invariants
        assert stratum_index(fs, _pt(L, e=1)) == 1
        assert stratum_index(fs, _pt(L)) == 0

    def test_sl3_subregular_point(self, sl3):
        L, fs = sl3.algebra, sl3.invariants
        sub = _pt(L, e21=1)
        assert all(f.evaluate(sub) == 0 for f in fs.polys)
        assert stratum_index(fs, sub) == 1

    def test_fiber_dims(self, sl2, heis1):
        assert fiber_dim_over(sl2.invariants, _pt(sl2.algebra, e=1)) == 2
        assert fiber_dim_over(sl2.invariants, _pt(sl2.algebra)) == 3
        assert fiber_dim_over(heis1.invariants, _pt(heis1.algebra, x=4, y=-1)) == 2

    def test_fiber_dim_requires_membership(self, sl2):
        with pytest.raises(NilfiberError):
            fiber_dim_over(sl2.invariants, _pt(sl2.algebra, h=1))


class TestLemmaBounds:
    def test_regular_cone_point(self, sl2, sl2_family_m1):
        L = sl2.algebra
        check = lemma_containment_check(sl2_family_m1, [_pt(L, e=5, h=7), _pt(L, e=1)])
        assert check.status == PASS
        assert check.witness == {"i": 1, "J": 2, "lower": 2, "upper": 2}

    def test_zero_top_block(self, sl2, sl2_family_m1):
        L = sl2.algebra
        check = lemma_containment_check(sl2_family_m1, [_pt(L, e=2, h=3, f=-1), _pt(L)])
        assert check.status == PASS
        w = check.witness
        assert w["i"] == 0 and w["lower"] == 0 and w["upper"] == 1
        assert 0 <= w["J"] <= 1

    def test_requires_depth_one_membership(self, sl2, sl2_family_m1):
        L = sl2.algebra
        with pytest.raises(NilfiberError):
            lemma_containment_check(sl2_family_m1, [_pt(L), _pt(L, h=1)])
        deep = build_family(L, 2, sl2.invariants)
        with pytest.raises(NilfiberError):
            lemma_containment_check(deep, [_pt(L), _pt(L), _pt(L, e=1)])


class TestCharacterization:
    def test_sl2_fifty_points_agree(self, sl2):
        cone = sl2.parametrizations["nilcone"]
        rep = check_N1_characterization(sl2.algebra, sl2.invariants,
                                        samples=50, seed=0, cone=cone.sample)
        char = [c for c in rep.checks if c.name == "null-fiber-characterization"][0]
        assert char.status == PASS
        assert char.witness["samples"] == 50
        assert char.witness["agreements"] == 50
        assert char.witness["member_cases"] > 0
        assert char.witness["nonmember_cases"] > 0
        bounds = [c for c in rep.checks if c.name == "lemma-bounds"][0]
        assert bounds.status == PASS
        assert bounds.witness["points_checked"] == char.witness["member_cases"]
        assert bounds.witness["violations"] == []


class TestEquidim:
    def test_declared_index_is_audited(self, sl2):
        L, fs = sl2.algebra, sl2.invariants
        wrong = StratumSample(name="claimed-regular", points=(_pt(L),),
                              declared_dim=0, declared_index=1)
        rep = equidim_diagnostic(L, fs, [wrong])
        (check,) = [c for c in rep.checks if c.name == "stratum:claimed-regular"]
        assert check.status == FAIL
        assert check.witness["computed"] == 0

    def test_level1_strata_by_hand(self, sl2):
        L, fs = sl2.algebra, sl2.invariants
        origin = StratumSample(name="origin", points=(_pt(L),),
                               declared_dim=0, declared_index=0)
        regular = StratumSample(name="principal",
                                points=(_pt(L, e=1), _pt(L, f=-3), _pt(L, e=2, h=2, f=-1)),
                                declared_dim=2, declared_index=1)
        rep = equidim_diagnostic(L, fs, [origin, regular])
        (verdict,) = [c for c in rep.checks if c.name == "equidim-verdict"]
        w = verdict.witness
        assert w["target"] == 4
        assert w["totals"] == {"origin": 3, "principal": 4}
        assert w["excess_strata"] == []
        assert w["attaining_strata"] == ["principal"]
        assert w["reducibility_evidence"] is False
        assert w["equidimensional_over_samples"] is True


@pytest.fixture(scope="module")
def chain():
    return sl2_chain(levels=3, seed=0, points_per_stratum=5)


class TestChain:

    def test_summary_and_level_count(self, chain):
        assert chain.summary == PASS
        assert chain.label == "nilfiber:sl2:chain:3"

    def test_level1_attains_target(self, chain):
        (c,) = [c for c in chain.checks
                if c.name == "level1:stratum:principal-nilpotent"]
        assert c.witness["total"] == 4 and c.witness["target"] == 4
        assert not c.witness["excess"]

    def test_level2_reducibility_evidence(self, chain):
        (v,) = [c for c in chain.checks if c.name == "level2:equidim-verdict"]
        w = v.witness
        assert w["target"] == 8
        assert w["totals"] == {"degenerate": 8, "regular": 8}
        assert "degenerate" in w["strata_avoiding_omega"]
        assert w["reducibility_evidence"] is True

    def test_level3_excess_dimension(self, chain):
        (c,) = [c for c in chain.checks if c.name == "level3:stratum:bad-component"]
        w = c.witness
        assert w["stratum_index"] == 3
        assert w["total"] == 17 and w["target"] == 16
        assert w["excess"] is True
        assert "not equidimensional" in w["flag"]

    def test_levels_argument_is_checked(self):
        with pytest.raises(ValueError):
            sl2_chain(levels=0)
        with pytest.raises(ValueError):
            sl2_chain(levels=4)

    def test_single_level_runs_standalone(self):
        rep = sl2_chain(levels=1, seed=0)
        assert rep.summary == PASS
        names = [c.name for c in rep.checks]
        assert "n1:null-fiber-characterization" in names
        assert "n1:lemma-bounds" in names
        assert not any(n.startswith("level2:") for n in names)


def test_catalog_entry_exposes_nilcone(sl2):
    cone = sl2.parametrizations["nilcone"]
    for trial in range(10):
        r = sampling.rng(0, sampling.TAG_STRATA, 99, trial)
        _, pt = cone.sample(r)
        assert sl2.invariants.polys[0].evaluate(pt) == 0
