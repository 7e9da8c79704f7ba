from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import assume, given, strategies as st

from takiffalg import catalog, liealg, raistauvel, sampling
from takiffalg.liealg import (
    InvariantSet,
    LieAlgebra,
    bracket_defect_against,
    invariance_defect,
)
from takiffalg.polyring import Polynomial, parse_poly
from takiffalg.raistauvel import InvariantFamily, build_family
from takiffalg.report import FAIL, PASS, SKIPPED
from takiffalg.takiff import generating_targets, nilpotent_ideal, takiff
from takiffalg.verify import (
    verify_main_theorem,
    verify_multi_current,
    wonderful_diagnostic,
)

from oracles import bracket_values_at

CHECK_ORDER = [
    "jacobi", "invariance", "ideal-invariants", "index-formula",
    "magic-number", "degree-sum", "jacobian-rank-on-omega",
    "omega-transfer", "regularity-transfer",
]


def _by_name(rep, name):
    (check,) = [c for c in rep.checks if c.name == name]
    return check


class TestMainTheorem:
    def test_sl2_depth1_all_pass_symbolically(self, sl2):
        rep = verify_main_theorem(sl2.algebra, sl2.invariants, 1)
        assert [c.name for c in rep.checks] == CHECK_ORDER
        assert all(c.status == PASS for c in rep.checks)
        assert rep.summary == PASS
        assert _by_name(rep, "index-formula").witness == {
            "base_index": 1, "takiff_index": 2, "factor": 2}
        assert _by_name(rep, "magic-number").witness == {
            "base_magic": 2, "takiff_magic": 4, "factor": 2}

    def test_heis2_depth3_pass_with_codim2_note(self, heis2):
        rep = verify_main_theorem(heis2.algebra, heis2.invariants, 3,
                                  transfer_samples=40)
        assert rep.summary == PASS
        witness = _by_name(rep, "degree-sum").witness
        assert witness["base_degree_sum"] == 1
        assert witness["family_degree_sum"] == 4
        assert "codim-2 diagnostic" in witness["note"]

    def test_heis2_depth7_certifies_without_sampling(self, heis2):
        # dim 40: invariance and ideal checks are exact brackets at any size,
        # and eval_samples is accepted but has no effect
        rep = verify_main_theorem(heis2.algebra, heis2.invariants, 7,
                                  transfer_samples=10, eval_samples=40)
        assert _by_name(rep, "invariance").status == PASS
        assert _by_name(rep, "invariance").witness == {"mode": "symbolic",
                                                       "members": 8}
        assert _by_name(rep, "ideal-invariants").status == PASS
        assert _by_name(rep, "ideal-invariants").witness["mode"] == "symbolic"
        assert rep.summary == PASS
        plain = verify_main_theorem(heis2.algebra, heis2.invariants, 7,
                                    transfer_samples=10)
        assert plain.to_json() == rep.to_json()

    def test_corrupted_invariant_fails_with_witness(self, sl2):
        bad = InvariantSet(algebra=sl2.algebra,
                           polys=(parse_poly("h^2 + 3*e*f", sl2.algebra.basis),))
        rep = verify_main_theorem(sl2.algebra, bad, 1)
        check = _by_name(rep, "invariance")
        assert check.status == FAIL
        assert check.witness["member"] is not None
        assert rep.summary == FAIL

    def test_no_invariants_skips_dependent_checks(self):
        entry = catalog.load("affine2")
        rep = verify_main_theorem(entry.algebra, entry.invariants, 1)
        for name in ("invariance", "degree-sum", "jacobian-rank-on-omega",
                     "omega-transfer"):
            check = _by_name(rep, name)
            assert check.status == SKIPPED
            assert check.witness["note"] == "no invariants supplied"
        assert _by_name(rep, "index-formula").status == PASS
        assert rep.summary == PASS

    @pytest.mark.parametrize("samples", [0, -3])
    def test_fewer_than_one_transfer_sample_is_refused(self, sl2, samples):
        L, fs = sl2.algebra, sl2.invariants
        with pytest.raises(ValueError, match="at least one sample"):
            verify_main_theorem(L, fs, 1, transfer_samples=samples)
        for degrees in ([1], [1, 1]):
            with pytest.raises(ValueError, match="at least one sample"):
                verify_multi_current(L, fs, degrees, transfer_samples=samples)

    def test_report_is_deterministic(self, sl2):
        a = verify_main_theorem(sl2.algebra, sl2.invariants, 1, seed=3)
        b = verify_main_theorem(sl2.algebra, sl2.invariants, 1, seed=3)
        assert a.to_json() == b.to_json()


class TestMultiCurrent:
    def test_single_degree_delegates_exactly(self, sl2):
        direct = verify_main_theorem(sl2.algebra, sl2.invariants, 2, seed=1)
        multi = verify_multi_current(sl2.algebra, sl2.invariants, [2], seed=1)
        assert direct.to_json() == multi.to_json()

    def test_two_levels_on_sl2(self, sl2):
        rep = verify_multi_current(sl2.algebra, sl2.invariants, [1, 1],
                                   transfer_samples=30)
        assert rep.summary == PASS
        names = [c.name for c in rep.checks]
        assert names[0].startswith("level1:")
        assert any(n.startswith("level2:") for n in names)
        assert names[-1] == "family-count"
        fc = _by_name(rep, "family-count")
        assert fc.witness == {"count": 4, "expected": 4, "algebra_dim": 12}

    def test_heis1_three_levels_all_linear(self, heis1):
        rep = verify_multi_current(heis1.algebra, heis1.invariants, [1, 1, 1],
                                   transfer_samples=10, eval_samples=30)
        assert rep.summary == PASS
        fc = _by_name(rep, "family-count")
        assert fc.witness == {"count": 8, "expected": 8, "algebra_dim": 24}


class TestDiagnostics:
    def test_wonderful_sl2(self, sl2):
        rep = wonderful_diagnostic(sl2.algebra, sl2.invariants)
        assert _by_name(rep, "invariant-count-vs-index").status == PASS
        assert _by_name(rep, "criterion-iii-degree-sum").status == PASS
        assert rep.summary == PASS

    @pytest.mark.parametrize("name,sum_deg,magic", [
        ("slnV2", 2, 4), ("heis2", 1, 3),
    ])
    def test_wonderful_degree_sum_refutes_codim2(self, name, sum_deg, magic):
        entry = catalog.load(name)
        rep = wonderful_diagnostic(entry.algebra, entry.invariants)
        check = _by_name(rep, "criterion-iii-degree-sum")
        assert check.status == FAIL
        assert check.witness["codim2_refuted"] is True
        assert check.witness["note"] == f"codim-2 refuted: {sum_deg} < {magic}"
        assert not check.witness["criterion_iii_holds"]


class TestBracketOracle:
    """The symbolic bracket against grad F(xi) times the Kirillov matrix."""

    @pytest.mark.parametrize("name,m", [("sl3", 4), ("slnV3", 2)])
    def test_oracle_agrees_with_symbolic_pass(self, name, m):
        entry = catalog.load(name)
        fam = build_family(entry.algebra, m, entry.invariants)
        Lm = fam.takiff_algebra
        members = [F for _, _, F in fam.members()]
        assert all(bracket_defect_against(Lm, F, range(Lm.dim)) is None
                   for F in members)
        for p in range(3):
            pt = sampling.random_coords(Lm.basis, sampling.rng(5, 61, p))
            for F in members:
                assert not any(bracket_values_at(Lm, F, pt))

    def test_corrupted_member_fails_and_oracle_sees_the_witness(self, sl2):
        bad = InvariantSet(algebra=sl2.algebra,
                           polys=(parse_poly("h^2 + 3*e*f", sl2.algebra.basis),))
        rep = verify_main_theorem(sl2.algebra, bad, 5, transfer_samples=5)
        check = _by_name(rep, "invariance")
        assert check.status == FAIL
        fam = build_family(sl2.algebra, 5, bad)
        Lm = fam.takiff_algebra
        F = fam.member(*check.witness["member"])
        t = Lm.index_of(check.witness["basis_element"])
        for p in range(3):
            pt = sampling.random_coords(Lm.basis, sampling.rng(5, 62, p))
            values = bracket_values_at(Lm, F, pt)
            assert values[t] != 0
            for s, value in enumerate(values):
                defect = bracket_defect_against(Lm, F, [s])
                symbolic = 0 if defect is None else defect[1].evaluate(pt)
                assert value == symbolic


CORRUPTIBLE = [("sl2", 1), ("sl2", 2), ("sl2", 3), ("sl3", 1),
               ("heis1", 1), ("heis1", 2), ("heis1", 3), ("slnV2", 1)]


@lru_cache(maxsize=None)
def _family(name, m):
    entry = catalog.load(name)
    return build_family(entry.algebra, m, entry.invariants)


def _plus_random_monomial(data, f: Polynomial) -> Polynomial:
    # f plus c times a random monomial of the same degree, c in -3..3
    n, d = len(f.varset), f.degree()
    idx = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d)))
    mono = tuple((i, idx.count(i)) for i in sorted(set(idx)))
    return f + Polynomial(f.varset, {mono: data.draw(st.integers(-3, 3))})


def _nonzero_somewhere(Lm, F, t) -> bool:
    return any(bracket_values_at(Lm, F, sampling.random_coords(
        Lm.basis, sampling.rng(5, 63, p)))[t] for p in range(3))


class TestGeneratingSet:
    """Bracketing against a generating set decides exactly what all targets do."""

    @given(st.sampled_from(CORRUPTIBLE), st.data())
    def test_invariance_fails_exactly_when_some_target_does(self, case, data):
        name, m = case
        entry = catalog.load(name)
        L, polys = entry.algebra, list(entry.invariants.polys)
        i = data.draw(st.integers(0, len(polys) - 1))
        polys[i] = _plus_random_monomial(data, polys[i])
        assume(not polys[i].is_zero)
        fs = InvariantSet(algebra=L, polys=tuple(polys))
        rep = verify_main_theorem(L, fs, m, transfer_samples=1)
        check = _by_name(rep, "invariance")
        fam = build_family(L, m, fs)
        Lm = fam.takiff_algebra
        failing = [[i, j] for i, j, F in fam.members() if invariance_defect(Lm, F)]
        assert check.status == (FAIL if failing else PASS)
        if failing:
            assert check.witness["member"] == failing[0]
            F = fam.member(*check.witness["member"])
            t = Lm.index_of(check.witness["basis_element"])
            _, bracket = bracket_defect_against(Lm, F, [t])
            assert check.witness["poisson_bracket"][:400] == str(bracket)[:400]
            assert _nonzero_somewhere(Lm, F, t)

    @given(st.sampled_from(CORRUPTIBLE), st.data())
    def test_a_corrupted_member_is_caught_by_the_generators(self, case, data):
        fam = _family(*case)
        Lm = fam.takiff_algebra
        members = [F for _, _, F in fam.members()]
        G = _plus_random_monomial(data, members[data.draw(st.integers(0, len(members) - 1))])
        targets, _ = generating_targets(Lm)
        found = bracket_defect_against(Lm, G, targets)
        assert (found is None) == (invariance_defect(Lm, G) is None)
        if found is not None:
            assert _nonzero_somewhere(Lm, G, Lm.index_of(found[0]))

    def _spied_targets(self, monkeypatch, L, fs, m):
        seen = []

        def spy(Lm, f, targets):
            seen.append(list(targets))
            return bracket_defect_against(Lm, f, targets)

        monkeypatch.setattr(liealg, "bracket_defect_against", spy)
        rep = verify_main_theorem(L, fs, m, transfer_samples=1)
        monkeypatch.undo()
        return rep, seen

    def test_jacobi_pass_brackets_the_generators(self, monkeypatch, sl2):
        rep, seen = self._spied_targets(monkeypatch, sl2.algebra, sl2.invariants, 3)
        assert _by_name(rep, "jacobi").status == PASS
        invariance, ideal = generating_targets(takiff(sl2.algebra, 3))
        assert len(invariance) < 12
        # one call per member (4), then per ideal generator: 3 top coordinates, 3 members
        assert seen == [invariance] * 4 + [ideal] * 6

    def test_jacobi_fail_with_an_invariant_brackets_every_target(self, monkeypatch):
        # [e, f] = e instead of h: Jacobi fails, and the sl2 Casimir is no invariant
        bad = LieAlgebra.create("badsl2", ("e", "h", "f"), {
            (0, 1): {0: -2}, (0, 2): {0: 1}, (1, 2): {2: -2}})
        fs = InvariantSet(algebra=bad, polys=(parse_poly("h^2 + 4*e*f", bad.basis),))
        rep, seen = self._spied_targets(monkeypatch, bad, fs, 2)
        assert _by_name(rep, "jacobi").status == FAIL
        L2 = takiff(bad, 2)
        ideal = [L2.index_of(b) for b in nilpotent_ideal(L2)]
        assert len(generating_targets(L2)[0]) < L2.dim
        assert seen[0] == list(range(L2.dim))
        assert seen[1:] and all(t == ideal for t in seen[1:])
        assert _by_name(rep, "invariance").status == FAIL


def _structural_and_exact(monkeypatch, L, fs, m, **kwargs):
    """(report, structural rank calls, report with every rank taken from its matrix)."""
    structural = raistauvel.takiff_kirillov_rank
    calls = []

    def spy(fam, flat):
        calls.append(flat)
        return structural(fam, flat)

    monkeypatch.setattr(raistauvel, "takiff_kirillov_rank", spy)
    rep = verify_main_theorem(L, fs, m, **kwargs)
    monkeypatch.setattr(raistauvel, "takiff_kirillov_rank",
                        lambda fam, flat: liealg.kirillov_rank_at(fam.takiff_algebra, flat))
    exact = verify_main_theorem(L, fs, m, **kwargs)
    monkeypatch.undo()
    return rep, len(calls), exact


def _exact_route_witnesses_agree(rep, exact):
    for name in ("index-formula", "magic-number", "regularity-transfer"):
        assert _by_name(rep, name).status == _by_name(exact, name).status
        assert _by_name(rep, name).witness == _by_name(exact, name).witness


class TestStructuralRanks:
    @pytest.mark.parametrize("name,m", [("sl2", 3), ("sl3", 2), ("heis1", 2),
                                        ("slnV2", 2)])
    def test_block_ranks_leave_every_byte_unchanged(self, monkeypatch, name, m):
        entry = catalog.load(name)
        rep, calls, exact = _structural_and_exact(
            monkeypatch, entry.algebra, entry.invariants, m, transfer_samples=20)
        assert calls > 0
        assert rep.summary == PASS
        assert rep.to_json() == exact.to_json()

    def test_a_derivative_identity_defect_fails_both_omega_checks(self, monkeypatch, sl2):
        # 2 * F_1^1 is still an invariant, with the right degree and support,
        # but its grade-1 partials are twice df/db at grade 2
        fam = build_family(sl2.algebra, 2, sl2.invariants)
        table = ((fam.member(1, 0), fam.member(1, 1) * 2, fam.member(1, 2)),)
        bad = InvariantFamily(takiff_algebra=fam.takiff_algebra, base=fam.base, table=table)
        monkeypatch.setattr(raistauvel, "build_family", lambda L, m, fs: bad)
        rep, calls, exact = _structural_and_exact(
            monkeypatch, sl2.algebra, sl2.invariants, 2, transfer_samples=20)
        assert _by_name(rep, "invariance").status == PASS
        for name in ("jacobian-rank-on-omega", "omega-transfer"):
            check = _by_name(rep, name)
            assert check.status == FAIL
            assert (check.witness["member"], check.witness["variable"]) == ([1, 1], "e@1")
        assert calls == 0
        _exact_route_witnesses_agree(rep, exact)

    def test_a_failed_invariance_takes_the_exact_route(self, monkeypatch, sl2):
        bad = InvariantSet(algebra=sl2.algebra,
                           polys=(parse_poly("h^2 + 3*e*f", sl2.algebra.basis),))
        rep, calls, exact = _structural_and_exact(
            monkeypatch, sl2.algebra, bad, 2, transfer_samples=20)
        assert _by_name(rep, "invariance").status == FAIL
        assert calls == 0
        _exact_route_witnesses_agree(rep, exact)
