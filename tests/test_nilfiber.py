from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from takiffalg import catalog, linalg, nilfiber, raistauvel, sampling, verify
from takiffalg.liealg import AlgebraError, InvariantSet, LieAlgebra, differential_matrix
from takiffalg.nilfiber import (
    NilfiberError,
    StratumSample,
    _kernel_point,
    check_N1_characterization,
    equidim_diagnostic,
    sl2_chain,
    stratum_index,
)
from takiffalg.polyring import jet_substitute, parse_poly
from takiffalg.raistauvel import InvariantFamily, build_family, family_rank_at
from takiffalg.report import FAIL, PASS

from oracles import derivative_identity_defect as oracle_identity_defect
from oracles import fraction_nullspace, graded_parts, n1_characterization, null_fiber_member
from oracles import flatten_point, weight_defect


def _pt(L, **coords):
    return {b: Fraction(coords.get(b, 0)) for b in L.basis}


class TestMembership:
    """The oracle membership that the N<1> cross-checks compare against."""

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
            comps = [dict(zip(L.basis, sampling.random_coords(L.basis, r, bound=30))),
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



WITH_INVARIANTS = [name for name in catalog.NAMES if catalog.load(name).invariants.polys]


@lru_cache(maxsize=None)
def _family(name):
    entry = catalog.load(name)
    return build_family(entry.invariants, 1)


def _bounds_at(fam, xi0, xi1):
    i = stratum_index(fam.base, xi1)
    J = family_rank_at(fam, flatten_point(fam.algebra, [xi0, xi1]))
    return i, J


class TestLemmaBounds:
    """2i <= J <= l+i, which the certificate claims on all of q<1>*."""

    def test_regular_cone_point(self, sl2, sl2_family_m1):
        L = sl2.algebra
        assert _bounds_at(sl2_family_m1, _pt(L, e=5, h=7), _pt(L, e=1)) == (1, 2)

    def test_zero_top_block(self, sl2, sl2_family_m1):
        L = sl2.algebra
        i, J = _bounds_at(sl2_family_m1, _pt(L, e=2, h=3, f=-1), _pt(L))
        assert i == 0 and 0 <= J <= 1

    @pytest.mark.parametrize("name", WITH_INVARIANTS)
    @given(data=st.data())
    @example(data=None)
    def test_bounds_hold_at_random_points(self, name, data):
        # xi_1 lives on a random coordinate subspace with small entries, so
        # degenerate stratum indices occur; data=None is the zero top
        fam = _family(name)
        basis = fam.base.algebra.basis
        if data is None:
            xi0 = xi1 = {b: 0 for b in basis}
        else:
            small = st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis))
            support = data.draw(st.sets(st.sampled_from(basis)))
            xi0 = dict(zip(basis, data.draw(small)))
            xi1 = {b: v if b in support else 0 for b, v in zip(basis, data.draw(small))}
        i, J = _bounds_at(fam, xi0, xi1)
        assert 2 * i <= J <= fam.l + i


def _perturbed(fam, i, j, extra):
    # the fields of fam with extra added to F_i^j: a draft the family refuses
    polys = list(fam.polys)
    polys[j * fam.l + i - 1] += parse_poly(extra, fam.algebra.basis)
    return SimpleNamespace(algebra=fam.algebra, base=fam.base, polys=tuple(polys))


class TestCharacterization:
    @pytest.mark.parametrize("name", ["sl2", "sl3", "heis1"])
    def test_oracle_membership_matches_the_base_characterization(self, name, n1_points):
        # the certificate's claim, sampled: 50 points of q<1>*, on N<1> and off it
        entry = catalog.load(name)
        fam = _family(name)
        pairs = [(null_fiber_member(fam, [xi0, xi1]),
                  n1_characterization(entry.invariants.polys, xi0, xi1))
                 for xi0, xi1 in n1_points(entry)]
        assert all(lhs == rhs for lhs, rhs in pairs)
        assert {lhs for lhs, _ in pairs} == {True, False}

    @pytest.mark.parametrize("name", WITH_INVARIANTS)
    def test_every_catalog_family_is_certified(self, name):
        entry = catalog.load(name)
        rep = check_N1_characterization(_family(name), seed=5)
        char, bounds = rep.checks
        assert (char.name, char.status, char.witness, char.seed) == \
            ("null-fiber-characterization", PASS, {"mode": "derivative-identity"}, None)
        assert bounds.name == "lemma-bounds" and bounds.status == PASS and bounds.seed == 5
        w = bounds.witness
        assert w["mode"] == "derivative-identity" and w["violations"] == []
        assert w["lower"] == 2 * w["i"] <= w["J"] <= w["upper"] == len(entry.invariants) + w["i"]

    def test_witness_point_is_a_regular_point_of_the_fiber(self, sl2, sl2_family_m1):
        cone = sl2.parametrizations["nilcone"]
        rep = check_N1_characterization(sl2_family_m1, seed=0, cone=cone.sample)
        (bounds,) = [c for c in rep.checks if c.name == "lemma-bounds"]
        assert bounds.witness == {"mode": "derivative-identity", "i": 1, "J": 2,
                                  "lower": 2, "upper": 2, "violations": []}

    def test_trivial_kernel_puts_the_witness_at_the_origin(self):
        # the abelian plane with invariants x and y: the differentials span
        # the dual everywhere, so the fiber over xi_1 = 0 is the origin alone
        L = LieAlgebra.create("ab2", ("x", "y"), {})
        fs = InvariantSet(algebra=L, polys=(parse_poly("x", L.basis), parse_poly("y", L.basis)))
        rep = check_N1_characterization(build_family(fs, 1))
        assert rep.summary == PASS
        (bounds,) = [c for c in rep.checks if c.name == "lemma-bounds"]
        assert (bounds.witness["i"], bounds.witness["J"]) == (2, 4)

    def test_a_deeper_family_is_refused(self, sl2):
        fam = build_family(sl2.invariants, 2)
        with pytest.raises(NilfiberError, match="N<1> needs a level-1 family, got depth 2"):
            check_N1_characterization(fam)

    def test_chain_shares_the_family_and_matches_the_standalone_run(self, sl2, chain,
                                                                    sl2_family_m1):
        cone = sl2.parametrizations["nilcone"]
        rep = check_N1_characterization(sl2_family_m1, seed=0, cone=cone.sample)
        by_name = {c.name: c for c in chain.checks}
        for c in rep.checks:
            shared = by_name["n1:" + c.name]
            assert (shared.status, shared.witness, shared.seed) == (c.status, c.witness, c.seed)

    def test_a_term_free_of_grade0_is_refused(self, sl2, sl2_family_m1):
        # (e@1)^2 in F^1 keeps the degree and the derivative identity, but
        # F^1 is no longer <(df)_{xi_1}, xi_0>: its weight 0 is refused
        bad = _perturbed(sl2_family_m1, 1, 1, "e@1^2")
        assert oracle_identity_defect(bad) is None
        assert weight_defect(bad) == (1, 1, "e@1^2")
        L = sl2.algebra
        xi0, xi1 = _pt(L, e=5, h=7), _pt(L, e=1)
        assert n1_characterization(sl2.invariants.polys, xi0, xi1)
        assert not null_fiber_member(bad, [xi0, xi1])
        with pytest.raises(AlgebraError, match=r"\(1,1\) has the term 'e@1\^2' of degree 2 "
                                               r"and weight 0"):
            InvariantFamily(algebra=bad.algebra, polys=bad.polys, base=bad.base)

    def test_a_broken_derivative_identity_stops_the_chain(self, monkeypatch, sl2_family_m1):
        # e@0*h@1 in F^1 has weight 1, but dF^1/d(e@0) gains h@1: the chain
        # refuses its level-1 family instead of certifying N<1>
        bad = _perturbed(sl2_family_m1, 1, 1, "e@0*h@1")
        assert weight_defect(bad) is None
        assert oracle_identity_defect(bad) == (1, 1, "e@0")

        def broken(*args):
            out = jet_substitute(*args)
            out[1] = out[1] + parse_poly("e@0*h@1", out[1].varset)
            return out

        monkeypatch.setattr(raistauvel, "jet_substitute", broken)
        with pytest.raises(AlgebraError, match=r"\(1,1\): the partial in 'e@0'"):
            sl2_chain(levels=1, seed=0)

    def test_a_rank_outside_the_bounds_fails(self, monkeypatch, sl2, sl2_family_m1):
        monkeypatch.setattr(nilfiber, "family_rank_at", lambda fam, flat: 0)
        cone = sl2.parametrizations["nilcone"]
        rep = check_N1_characterization(sl2_family_m1, cone=cone.sample)
        (bounds,) = [c for c in rep.checks if c.name == "lemma-bounds"]
        assert bounds.status == FAIL
        (violation,) = bounds.witness["violations"]
        assert (violation["i"], violation["J"], violation["lower"]) == (1, 0, 2)
        assert len(violation["point"]) == 6


def _oracle_kernel_point(rows, dim, r, guard=None):
    # the Fraction combination of the Fraction kernel basis, draw for draw
    basis = fraction_nullspace(rows)
    for _ in range(100):
        coeffs = [r.randint(-sampling.DEFAULT_BOUND, sampling.DEFAULT_BOUND) for _ in basis]
        vec = [sum(c * v[k] for c, v in zip(coeffs, basis)) for k in range(dim)]
        if any(vec) and (guard is None or guard(vec)):
            return vec
    raise NilfiberError("no guarded point")


class TestKernelPoints:
    """Points from the integer kernel route equal the Fraction combination's,
    and leave the random stream where it leaves it."""

    def _agree(self, rows, dim, seed, t, guard=None):
        r, r_oracle = sampling.rng(seed, 77, t), sampling.rng(seed, 77, t)
        pt = _kernel_point(linalg.nullspace(rows), r, guard=guard)
        assert pt == _oracle_kernel_point(rows, dim, r_oracle, guard=guard)
        assert type(pt) is list and len(pt) == dim
        assert all(type(v) is int if v.denominator == 1 else type(v) is Fraction
                   for v in pt)
        assert r.random() == r_oracle.random()
        return pt

    def test_sl2_rows(self, sl2):
        L, fs = sl2.algebra, sl2.invariants
        cone = sl2.parametrizations["nilcone"]
        fractional = 0
        for t in range(50):
            r = sampling.rng(3, 78, t)
            xi1 = cone.sample(r)[1] if t % 2 else sampling.random_coords(L.basis, r)
            pt = self._agree(differential_matrix(fs.polys, xi1), L.dim, 3, t)
            fractional += any(type(v) is Fraction for v in pt)
        assert fractional > 0

    def test_sl2_level1_rows_guarded(self, sl2, sl2_family_m1):
        L1, fs1 = sl2_family_m1.algebra, sl2_family_m1
        grade1 = [k for k, name in enumerate(L1.basis) if graded_parts(name)[1] == 1]
        guards = (lambda p: any(p[k] for k in grade1),   # as in the level-3 strata
                  lambda p: p[grade1[0]] > 0)             # rejects about half the draws
        for t in range(50):
            r = sampling.rng(4, 78, t)
            xi0 = dict(zip(sl2.algebra.basis, sampling.random_coords(sl2.algebra.basis, r)))
            xi1 = (dict(zip(sl2.algebra.basis, sampling.random_coords(sl2.algebra.basis, r)))
                   if t % 2 else {b: 0 for b in sl2.algebra.basis})
            eta = flatten_point(L1, [xi0, xi1])
            self._agree(differential_matrix(fs1.polys, eta), L1.dim, 4, t,
                        guard=guards[t % 2])

    def test_guard_that_never_passes(self, sl2):
        rows = differential_matrix(sl2.invariants.polys, {"e": 1, "h": 2, "f": 3})
        with pytest.raises(NilfiberError, match="100 draws"):
            _kernel_point(linalg.nullspace(rows), sampling.rng(0, 1), guard=lambda p: False)


class TestEquidim:
    def test_declared_index_is_audited(self, sl2):
        L, fs = sl2.algebra, sl2.invariants
        wrong = StratumSample(name="claimed-regular", points=(_pt(L),),
                              declared_dim=0, declared_index=1)
        rep = equidim_diagnostic(fs, [wrong])
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
        rep = equidim_diagnostic(fs, [origin, regular])
        (verdict,) = [c for c in rep.checks if c.name == "equidim-verdict"]
        w = verdict.witness
        assert w["target"] == 4
        assert w["totals"] == {"origin": 3, "principal": 4}
        assert w["excess_strata"] == []
        assert w["attaining_strata"] == ["principal"]
        assert w["reducibility_evidence"] is False
        assert w["equidimensional_over_samples"] is True

    def test_a_stratum_sample_is_read_only(self, sl2):
        s = StratumSample(name="origin", points=(_pt(sl2.algebra),), declared_dim=0,
                          declared_index=0)
        assert s.dim_audit is None
        assert s == StratumSample("origin", (_pt(sl2.algebra),), 0, 0, None)
        for name in ("name", "points", "declared_dim", "declared_index", "dim_audit"):
            with pytest.raises(AttributeError):
                setattr(s, name, getattr(s, name))

    def test_no_strata_is_refused(self, monkeypatch, sl2):
        # a verdict over no sample would PASS as equidimensional with no evidence
        ranked = []
        monkeypatch.setattr(nilfiber, "stratum_index", lambda *a: ranked.append(a))
        for empty in ([], ()):
            with pytest.raises(NilfiberError, match="no strata"):
                equidim_diagnostic(sl2.invariants, empty)
        assert ranked == []

    def test_duplicate_stratum_names_are_refused_before_any_work(self, monkeypatch, sl2):
        # two strata named "s" would share one totals entry in the verdict
        L, fs = sl2.algebra, sl2.invariants
        origin = StratumSample(name="s", points=(_pt(L),), declared_dim=0, declared_index=0)
        regular = StratumSample(name="s", points=(_pt(L, e=1),), declared_dim=2,
                                declared_index=1)
        ranked = []
        monkeypatch.setattr(nilfiber, "stratum_index", lambda *a: ranked.append(a))
        with pytest.raises(NilfiberError, match="'s'"):
            equidim_diagnostic(fs, [origin, regular])
        assert ranked == []


@pytest.fixture(scope="module")
def chain():
    return sl2_chain(levels=3, seed=0)


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


# A chain in a fresh process, its report JSON on stdout.
_FRESH_CHAIN = ("import sys; from takiffalg.nilfiber import sl2_chain; "
                "sys.stdout.write(sl2_chain(3, int(sys.argv[1])).to_json())")
_SRC = Path(__file__).resolve().parents[1] / "src"


class TestWarmState:
    """A chain gives a fresh process's bytes whatever ran before it in the process.

    The catalog entry, its polynomials' integer plans and the algebra's
    caches are built on first use and kept, so a later chain runs on warm
    state; its report must not show it.
    """

    SEEDS = range(10)

    @pytest.fixture(scope="class")
    def fresh(self):
        out = {}
        for s in self.SEEDS:
            proc = subprocess.run([sys.executable, "-c", _FRESH_CHAIN, str(s)],
                                  env=dict(os.environ, PYTHONPATH=str(_SRC)),
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            out[s] = proc.stdout
        return out

    def test_forward(self, fresh):
        for s in self.SEEDS:
            assert sl2_chain(3, s).to_json() == fresh[s], s

    def test_reversed(self, fresh):
        for s in reversed(self.SEEDS):
            assert sl2_chain(3, s).to_json() == fresh[s], s

    def test_interleaved_with_verify(self, fresh):
        sl2 = catalog.load("sl2")
        first = {}
        for s in self.SEEDS:
            rep = verify.verify_main_theorem(sl2.algebra, sl2.invariants, 2, seed=s)
            first[s] = rep.to_json()
            assert sl2_chain(3, s).to_json() == fresh[s], s
        for s in self.SEEDS:
            assert verify.verify_main_theorem(sl2.algebra, sl2.invariants, 2,
                                              seed=s).to_json() == first[s], s
