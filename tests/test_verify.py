from __future__ import annotations

import pytest

from takiffalg import catalog, sampling
from takiffalg.liealg import InvariantSet, bracket_defect_against
from takiffalg.polyring import parse_poly
from takiffalg.raistauvel import build_family
from takiffalg.report import FAIL, PASS, SKIPPED
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
