from __future__ import annotations

from fractions import Fraction

import pytest

from takiffalg import catalog, nilfiber, sampling
from takiffalg.liealg import differential_matrix
from takiffalg.nilfiber import (
    NilfiberError,
    StratumSample,
    _kernel_point,
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
from takiffalg.takiff import flatten_point

from oracles import fraction_nullspace


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

    @pytest.mark.parametrize("samples", [0, -3])
    def test_fewer_than_one_sample_is_refused(self, sl2, samples):
        # a PASS over no samples, or with negative counts, would certify nothing
        with pytest.raises(ValueError, match="at least one sample"):
            check_N1_characterization(sl2.algebra, sl2.invariants, samples=samples)

    def test_chain_shares_the_family_and_matches_the_standalone_run(self, sl2, chain):
        # sl2_chain hands its level-1 family to the same loop; the checks and
        # the lemma-bounds count per fiber point are the standalone run's
        cone = sl2.parametrizations["nilcone"]
        rep = check_N1_characterization(sl2.algebra, sl2.invariants,
                                        samples=50, seed=0, cone=cone.sample)
        by_name = {c.name: c for c in chain.checks}
        for c in rep.checks:
            shared = by_name["n1:" + c.name]
            assert (shared.status, shared.witness) == (c.status, c.witness)
        bounds = by_name["n1:lemma-bounds"].witness
        assert bounds["points_checked"] == \
            by_name["n1:null-fiber-characterization"].witness["member_cases"] > 0


def _oracle_kernel_point(rows, names, r, guard=None):
    # the Fraction combination of the Fraction kernel basis, draw for draw
    basis = fraction_nullspace(rows)
    for _ in range(100):
        coeffs = [r.randint(-sampling.DEFAULT_BOUND, sampling.DEFAULT_BOUND) for _ in basis]
        vec = [sum(c * v[k] for c, v in zip(coeffs, basis)) for k in range(len(names))]
        pt = dict(zip(names, vec))
        if any(vec) and (guard is None or guard(pt)):
            return pt
    raise NilfiberError("no guarded point")


class TestKernelPoints:
    """Points from the integer kernel route equal the Fraction combination's,
    and leave the random stream where it leaves it."""

    def _agree(self, rows, names, seed, t, guard=None):
        r, r_oracle = sampling.rng(seed, 77, t), sampling.rng(seed, 77, t)
        pt = _kernel_point(rows, names, r, guard=guard)
        assert pt == _oracle_kernel_point(rows, names, r_oracle, guard=guard)
        assert list(pt) == list(names)
        assert all(type(v) is int if v.denominator == 1 else type(v) is Fraction
                   for v in pt.values())
        assert r.random() == r_oracle.random()
        return pt

    def test_sl2_rows(self, sl2):
        L, fs = sl2.algebra, sl2.invariants
        cone = sl2.parametrizations["nilcone"]
        fractional = 0
        for t in range(50):
            r = sampling.rng(3, 78, t)
            xi1 = cone.sample(r)[1] if t % 2 else sampling.random_coords(L.basis, r)
            pt = self._agree(differential_matrix(fs.polys, xi1), L.basis, 3, t)
            fractional += any(type(v) is Fraction for v in pt.values())
        assert fractional > 0

    def test_sl2_level1_rows_guarded(self, sl2, sl2_family_m1):
        L1, fs1 = sl2_family_m1.takiff_algebra, sl2_family_m1.invariant_set()
        grade1 = [b for b in L1.basis if L1.grading.grade_of[b] == 1]
        guards = (lambda p: any(p[b] for b in grade1),   # as in the level-3 strata
                  lambda p: p[grade1[0]] > 0)             # rejects about half the draws
        for t in range(50):
            r = sampling.rng(4, 78, t)
            xi0 = sampling.random_coords(sl2.algebra.basis, r)
            xi1 = (sampling.random_coords(sl2.algebra.basis, r) if t % 2
                   else {b: 0 for b in sl2.algebra.basis})
            eta = flatten_point(L1, [xi0, xi1])
            self._agree(differential_matrix(fs1.polys, eta), L1.basis, 4, t,
                        guard=guards[t % 2])

    def test_guard_that_never_passes(self, sl2):
        rows = differential_matrix(sl2.invariants.polys, {"e": 1, "h": 2, "f": 3})
        with pytest.raises(NilfiberError, match="100 draws"):
            _kernel_point(rows, sl2.algebra.basis, sampling.rng(0, 1), guard=lambda p: False)


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

    def test_duplicate_stratum_names_are_refused_before_any_work(self, monkeypatch, sl2):
        # two strata named "s" would share one totals entry in the verdict
        L, fs = sl2.algebra, sl2.invariants
        origin = StratumSample(name="s", points=(_pt(L),), declared_dim=0, declared_index=0)
        regular = StratumSample(name="s", points=(_pt(L, e=1),), declared_dim=2,
                                declared_index=1)
        ranked = []
        monkeypatch.setattr(nilfiber, "stratum_index", lambda *a: ranked.append(a))
        with pytest.raises(NilfiberError, match="'s'"):
            equidim_diagnostic(L, fs, [origin, regular])
        assert ranked == []


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

    @pytest.mark.parametrize("points", [0, -1])
    def test_empty_strata_are_refused_before_any_work(self, monkeypatch, points):
        def no_work(*args, **kwargs):
            raise AssertionError("the chain started before checking its arguments")

        monkeypatch.setattr(nilfiber, "build_family", no_work)
        with pytest.raises(ValueError, match="at least one point"):
            sl2_chain(levels=3, points_per_stratum=points)

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
