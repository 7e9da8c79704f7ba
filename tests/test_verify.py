from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

import takiffalg.takiff
from takiffalg import algio, catalog, linalg, liealg, raistauvel, sampling, verify
from takiffalg.liealg import (
    InvariantSet,
    LieAlgebra,
    bracket_defect_against,
    invariance_defect,
)
from takiffalg.polyring import Polynomial, jet_substitute, parse_poly
from takiffalg.raistauvel import build_family
from takiffalg.report import FAIL, PASS, SKIPPED
from takiffalg.takiff import flatten_point, takiff
from takiffalg.verify import (
    verify_main_theorem,
    verify_multi_current,
    wonderful_diagnostic,
)

from oracles import bracket_values_at, kirillov_matrix as oracle_kirillov_matrix, naive_rank
from oracles import bareiss_rank, family_degree_sum, random_components
from oracles import derivative_identity_defect as oracle_identity_defect
from oracles import gradient_at as oracle_gradient_at
from oracles import is_regular
import test_report_bytes
from test_report_bytes import BAD_JACOBI_THIRD

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

    @pytest.mark.parametrize("trials", [0, -2])
    def test_fewer_than_one_trial_is_refused_before_any_work(self, monkeypatch, sl3,
                                                              trials):
        L, fs = sl3.algebra, sl3.invariants
        with pytest.raises(ValueError) as caught:
            liealg.index(L, trials=trials)
        built = []
        monkeypatch.setattr(raistauvel, "build_family", lambda *args: built.append(args))
        with pytest.raises(ValueError) as refused:
            verify_main_theorem(L, fs, 12, trials=trials)
        assert str(refused.value) == str(caught.value)
        for degrees in ([12], [1, 1]):
            with pytest.raises(ValueError) as refused:
                verify_multi_current(L, fs, degrees, trials=trials)
            assert str(refused.value) == str(caught.value)
        assert built == []

    @pytest.mark.parametrize("name", [n for n in catalog.NAMES
                                      if len(catalog.load(n).invariants)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_degree_sum_is_the_oracle_sum_over_the_members(self, name, m):
        entry = catalog.load(name)
        rep = verify_main_theorem(entry.algebra, entry.invariants, m, transfer_samples=1)
        fam = build_family(entry.invariants, m)
        witness = _by_name(rep, "degree-sum").witness
        assert witness["family_degree_sum"] == family_degree_sum(fam)
        assert witness["base_degree_sum"] == sum(entry.invariants.degrees())

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
                                   transfer_samples=10)
        assert rep.summary == PASS
        fc = _by_name(rep, "family-count")
        assert fc.witness == {"count": 8, "expected": 8, "algebra_dim": 24}

    @pytest.mark.parametrize("name,degrees", [("sl3", [1, 1, 1]), ("heis1", [2, 3]),
                                              ("slnV3", [3, 3])])
    def test_every_level_ranks_on_the_first_base(self, monkeypatch, name, degrees):
        # a level's base is the previous level's L<m>, ranked down the family
        # chain through every block triangle to ranks of the first base.  A
        # rank counts by either route of `InvariantSet.kirillov_rank_at` (the
        # block B(xi) or the Kirillov matrix), and every matrix built counts
        entry = catalog.load(name)
        widths = set()
        kirillov_matrix = liealg.kirillov_matrix
        set_rank = InvariantSet.kirillov_rank_at

        def spy(L, point):
            widths.add(L.dim)
            return kirillov_matrix(L, point)

        def rank_spy(fs, point):
            widths.add(fs.algebra.dim)
            return set_rank(fs, point)

        monkeypatch.setattr(liealg, "kirillov_matrix", spy)
        monkeypatch.setattr(InvariantSet, "kirillov_rank_at", rank_spy)
        rep = verify_multi_current(entry.algebra, entry.invariants, degrees,
                                   transfer_samples=20)
        assert widths == {entry.algebra.dim}
        # every byte is what ranking each algebra from its own matrix gives
        monkeypatch.setattr(raistauvel, "block_triangle_rank", lambda fam, top_rank: None)
        full = verify_multi_current(entry.algebra, entry.invariants, degrees,
                                    transfer_samples=20)
        assert widths > {entry.algebra.dim}
        assert full.to_json() == rep.to_json()


def _index_trials(monkeypatch) -> list:
    """[dim, ceiling, points ranked] of every `liealg.index` call, in call order.

    The ceiling is dim less the size of the certified set, before rounding
    down to even; a point of the algebra itself counts as ranked, a top
    component that a family ranks through its base does not.
    """
    index = liealg.index
    seen = []

    def spy(L, *, certified=None, **kwargs):
        call = [L.dim, L.dim - (len(certified) if certified is not None else 0), 0]
        seen.append(call)
        owner = type(certified) if certified is not None else InvariantSet
        rank = owner.kirillov_rank_at

        def counted(fs, point):
            call[2] += len(point) == L.dim
            return rank(fs, point)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, "kirillov_rank_at", counted)
            return index(L, certified=certified, **kwargs)

    monkeypatch.setattr(liealg, "index", spy)
    return seen


def _oracle_index(L, seed: int, trials: int = 5) -> int:
    # dim minus the largest rank over every trial point, with no stop
    streams = sampling.streams(seed, sampling.TAG_INDEX)
    return L.dim - max(bareiss_rank(oracle_kirillov_matrix(
        L, sampling.random_coords(L.basis, streams(t)))) for t in range(trials))


def _unbounded(monkeypatch, run):
    """The report ``run()`` writes when no index search takes a certified set."""
    index = liealg.index
    monkeypatch.setattr(liealg, "index", lambda L, certified=None, **kwargs: index(L, **kwargs))
    try:
        return run()
    finally:
        monkeypatch.setattr(liealg, "index", index)


class TestIndexCeiling:
    """A certified family caps both Kirillov ranks, so the index trials stop there.

    Invariants independent at a point give ind >= l: their differentials
    lie in the stabilizer on the open set Omega.  With invariance PASSed
    and an Omega point drawn, `index` takes the certified sets, whose
    ceilings are n - l on the base and (m+1)(n - l) on L<m>; the estimate
    is the maximum over every trial.
    """

    @pytest.mark.parametrize("name", catalog.NAMES)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_the_bounded_index_is_the_maximum_over_every_trial(self, name, m):
        entry = catalog.load(name)
        L, Lm = entry.algebra, takiff(entry.algebra, m)
        for seed in (0, 1, 7):
            rep = verify_main_theorem(L, entry.invariants, m, seed=seed,
                                      transfer_samples=1)
            witness = _by_name(rep, "index-formula").witness
            assert witness["base_index"] == _oracle_index(L, seed)
            assert witness["takiff_index"] == _oracle_index(Lm, seed)

    @pytest.mark.parametrize("name,degrees", [("sl2", [1, 1]), ("heis1", [2, 3])])
    def test_every_level_of_a_multi_current(self, monkeypatch, name, degrees):
        entry = catalog.load(name)
        seen = _index_trials(monkeypatch)
        rep = verify_multi_current(entry.algebra, entry.invariants, degrees,
                                   transfer_samples=5)
        base = entry.algebra
        for level, m in enumerate(degrees, start=1):
            Lm = takiff(base, m)
            witness = _by_name(rep, f"level{level}:index-formula").witness
            assert witness["base_index"] == _oracle_index(base, 0)
            assert witness["takiff_index"] == _oracle_index(Lm, 0)
            base = Lm
        # every level is certified, so every search has a ceiling below dim
        assert all(ceiling < dim for dim, ceiling, _ in seen)
        monkeypatch.undo()
        assert rep.to_json() == _unbounded(
            monkeypatch, lambda: verify_multi_current(entry.algebra, entry.invariants,
                                                      degrees, transfer_samples=5)).to_json()

    @pytest.mark.parametrize("name,m", [("sl3", 4), ("slnV3", 2)])
    def test_one_trial_on_each_side(self, monkeypatch, name, m):
        entry = catalog.load(name)
        n, l = entry.algebra.dim, len(entry.invariants)
        seen = _index_trials(monkeypatch)
        verify_main_theorem(entry.algebra, entry.invariants, m, seed=0)
        assert seen == [[n, n - l, 1], [(m + 1) * n, (m + 1) * (n - l), 1]]

    def test_a_non_invariant_base_runs_every_trial(self, monkeypatch, sl3):
        L = sl3.algebra
        f, g = sl3.invariants.polys
        fs = InvariantSet(algebra=L, polys=(f + Polynomial.variable(L.basis, L.basis[0]) ** 2, g))
        seen = _index_trials(monkeypatch)
        rep = verify_main_theorem(L, fs, 2, transfer_samples=10)
        assert _by_name(rep, "invariance").status == FAIL
        assert seen == [[8, 8, 5], [24, 24, 5]]
        assert rep.to_json() == _unbounded(
            monkeypatch, lambda: verify_main_theorem(L, fs, 2, transfer_samples=10)).to_json()

    def test_a_failed_omega_search_runs_every_trial(self, monkeypatch, sl3):
        L, fs = sl3.algebra, sl3.invariants
        monkeypatch.setattr(liealg, "omega_test", lambda fs, point: False)
        seen = _index_trials(monkeypatch)
        rep = verify_main_theorem(L, fs, 2, transfer_samples=10)
        assert _by_name(rep, "invariance").status == PASS
        assert _by_name(rep, "jacobian-rank-on-omega").status == FAIL
        assert seen == [[8, 8, 5], [24, 24, 5]]
        assert rep.to_json() == _unbounded(
            monkeypatch, lambda: verify_main_theorem(L, fs, 2, transfer_samples=10)).to_json()


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

    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_wonderful_is_the_uncertified_report(self, monkeypatch, name):
        entry = catalog.load(name)
        for seed in (0, 1, 7):
            rep = wonderful_diagnostic(entry.algebra, entry.invariants, seed=seed)
            assert rep.to_json() == _unbounded(monkeypatch, lambda: wonderful_diagnostic(
                entry.algebra, entry.invariants, seed=seed)).to_json()

    @pytest.mark.parametrize("invariant,built", [(True, 1), (False, 5)])
    def test_wonderful_sl3_ranks_one_trial_once_certified(self, monkeypatch, sl3,
                                                          invariant, built):
        L = sl3.algebra
        f, g = sl3.invariants.polys
        fs = sl3.invariants if invariant else InvariantSet(
            algebra=L, polys=(f + Polynomial.variable(L.basis, L.basis[0]) ** 2, g))
        matrix, widths = liealg.kirillov_matrix, []
        monkeypatch.setattr(liealg, "kirillov_matrix",
                            lambda alg, point: widths.append(alg.dim) or matrix(alg, point))
        rep = wonderful_diagnostic(L, fs)
        assert widths == [8] * built
        assert _by_name(rep, "invariant-count-vs-index").witness == {"count": 2, "index": 2}

    def test_wonderful_refuses_a_set_of_another_algebra(self, sl2, sl3):
        with pytest.raises(liealg.AlgebraError, match="different algebra"):
            wonderful_diagnostic(sl3.algebra, sl2.invariants)


class TestBracketOracle:
    """The symbolic bracket against grad F(xi) times the Kirillov matrix."""

    @pytest.mark.parametrize("name,m", [("sl3", 4), ("slnV3", 2)])
    def test_oracle_agrees_with_symbolic_pass(self, name, m):
        entry = catalog.load(name)
        fam = build_family(entry.invariants, m)
        Lm = fam.algebra
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
        fam = build_family(bad, 5)
        Lm = fam.algebra
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


def _bad_jacobi_third():
    return algio.algebra_from_dict(BAD_JACOBI_THIRD)


def _jacobi_levels(rep, L, degrees):
    """(jacobi check, validate(L<m>) check) per level of a verify report."""
    prefix = "" if len(degrees) == 1 else "level{}:"
    pairs = []
    for level, m in enumerate(degrees, start=1):
        L = takiff(L, m)
        pairs.append((_by_name(rep, prefix.format(level) + "jacobi"),
                      liealg.validate(L).checks[0]))
    return pairs


def _validate_spy(monkeypatch) -> list:
    """The dimension of every algebra `liealg.validate` is called on, in order."""
    seen = []
    original = liealg.validate

    def spy(L):
        seen.append(L.dim)
        return original(L)

    monkeypatch.setattr(liealg, "validate", spy)
    return seen


class TestJacobiCertificate:
    """L<m> satisfies Jacobi iff L does: the check against validate(L<m>) itself."""

    @pytest.mark.parametrize("degrees", [(m,) for m in (1, 2, 3)] + [(1, 2), (2, 1)])
    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_the_check_is_validate_on_the_truncation(self, name, degrees):
        entry = catalog.load(name)
        rep = verify_multi_current(entry.algebra, entry.invariants, degrees,
                                   trials=1, transfer_samples=1)
        for check, want in _jacobi_levels(rep, entry.algebra, degrees):
            assert check.status == want.status == PASS
            assert check.witness == want.witness

    @pytest.mark.parametrize("degrees", [(1,), (2,), (1, 1)])
    def test_a_broken_base_fails_with_the_truncation_triples(self, degrees):
        L, fs = _bad_jacobi_third()
        rep = verify_multi_current(L, fs, degrees, trials=1, transfer_samples=1)
        for check, want in _jacobi_levels(rep, L, degrees):
            assert check.status == want.status == FAIL
            assert check.witness == want.witness

    def test_one_validate_on_the_base(self, monkeypatch, sl3):
        seen = _validate_spy(monkeypatch)
        rep = verify_main_theorem(sl3.algebra, sl3.invariants, 4, transfer_samples=2)
        assert seen == [8]
        assert _by_name(rep, "jacobi").witness["triples_checked"] == 9880

    def test_one_validate_across_the_levels(self, monkeypatch, sl3):
        seen = _validate_spy(monkeypatch)
        rep = verify_multi_current(sl3.algebra, sl3.invariants, [1, 1, 1],
                                   transfer_samples=2)
        assert seen == [8]
        assert _by_name(rep, "level3:jacobi").status == PASS

    def test_a_broken_base_validates_each_truncation(self, monkeypatch):
        # the base fails, so every level validates its own L<m>, and no level
        # re-validates a base whose verdict the level below already gave
        seen = _validate_spy(monkeypatch)
        L, fs = _bad_jacobi_third()
        verify_multi_current(L, fs, [1, 1], trials=1, transfer_samples=1)
        assert seen == [3, 6, 12]


CORRUPTIBLE =[("sl2", 1), ("sl2", 2), ("sl2", 3), ("sl3", 1),
               ("heis1", 1), ("heis1", 2), ("heis1", 3), ("slnV2", 1)]
EXAMPLES_PER_CASE = 6


def _case_id(case) -> str:
    return f"{case[0]}<{case[1]}>"


def _plus_random_monomial(data, f: Polynomial) -> Polynomial:
    # f plus c times a random monomial of the same degree, c in -3..3
    n, d = len(f.varset), f.degree()
    idx = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d)))
    mono = tuple((i, idx.count(i)) for i in sorted(set(idx)))
    return f + Polynomial(f.varset, {mono: data.draw(st.integers(-3, 3))})


def _nonzero_somewhere(Lm, F, t) -> bool:
    return any(bracket_values_at(Lm, F, sampling.random_coords(
        Lm.basis, sampling.rng(5, 63, p)))[t] for p in range(3))


class TestInvarianceCertificate:
    """The checks certified from the base decide what bracketing every member on L<m> does.

    Each case of the oracle test gets its own few examples, about the
    profile's 50 in all.
    """

    @pytest.mark.parametrize("case", CORRUPTIBLE, ids=_case_id)
    @settings(max_examples=EXAMPLES_PER_CASE)
    @given(data=st.data())
    def test_invariance_fails_exactly_when_some_target_does(self, case, data):
        name, m = case
        entry = catalog.load(name)
        L, polys = entry.algebra, list(entry.invariants.polys)
        i = data.draw(st.integers(0, len(polys) - 1))
        polys[i] = _plus_random_monomial(data, polys[i])
        assume(polys[i].terms)
        fs = InvariantSet(algebra=L, polys=tuple(polys))
        rep = verify_main_theorem(L, fs, m, transfer_samples=1)
        check = _by_name(rep, "invariance")
        fam = build_family(fs, m)
        Lm = fam.algebra
        failing = [[i, j] for i, j, F in fam.members() if invariance_defect(Lm, F)]
        assert check.status == (FAIL if failing else PASS)
        if failing:
            assert check.witness["member"] == failing[0]
            F = fam.member(*check.witness["member"])
            t = Lm.index_of(check.witness["basis_element"])
            _, bracket = bracket_defect_against(Lm, F, [t])
            assert check.witness["poisson_bracket"][:400] == str(bracket)[:400]
            assert _nonzero_somewhere(Lm, F, t)

    @pytest.mark.parametrize("case", CORRUPTIBLE, ids=_case_id)
    @settings(max_examples=EXAMPLES_PER_CASE)
    @given(data=st.data())
    def test_the_ideal_check_fails_exactly_when_some_ideal_target_does(self, case, data):
        # the oracle brackets every generator, the top coordinates b@m and
        # then the members F_i^j with j >= 1, against the whole ideal
        name, m = case
        entry = catalog.load(name)
        L, polys = entry.algebra, list(entry.invariants.polys)
        i = data.draw(st.integers(0, len(polys) - 1))
        polys[i] = _plus_random_monomial(data, polys[i])
        assume(polys[i].terms)
        fs = InvariantSet(algebra=L, polys=tuple(polys))
        check = _by_name(verify_main_theorem(L, fs, m, transfer_samples=1), "ideal-invariants")
        fam = build_family(fs, m)
        Lm = fam.algebra
        ideal = [Lm.index_of(b) for b in Lm.basis[L.dim:]]
        generators = [(b, Polynomial.variable(Lm.basis, b)) for b in Lm.basis[m * L.dim:]]
        generators += [(f"F_{i}^{j}", F) for i, j, F in fam.members() if j >= 1]
        failing = [(label, F) for label, F in generators
                   if bracket_defect_against(Lm, F, ideal) is not None]
        assert check.status == (FAIL if failing else PASS)
        if failing:
            label, F = failing[0]
            element, bracket = bracket_defect_against(Lm, F, ideal)
            assert check.witness == {"generator": label, "ideal_element": element,
                                     "poisson_bracket": check.witness["poisson_bracket"]}
            assert check.witness["poisson_bracket"][:400] == str(bracket)[:400]
            assert _nonzero_somewhere(Lm, F, Lm.index_of(element))
        else:
            assert check.witness == {"mode": "symbolic", "generators": len(generators),
                                     "ideal_size": len(ideal)}

    def _spied_brackets(self, monkeypatch, L, fs, m):
        """(report, (algebra dim, targets) of every `bracket_defect_against` call)."""
        seen = []

        def spy(alg, f, targets):
            seen.append((alg.dim, list(targets)))
            return bracket_defect_against(alg, f, targets)

        monkeypatch.setattr(liealg, "bracket_defect_against", spy)
        rep = verify_main_theorem(L, fs, m, transfer_samples=1)
        monkeypatch.undo()
        return rep, seen

    @pytest.mark.parametrize("name,m", [("sl2", 3), ("sl3", 4)])
    def test_an_invariant_base_brackets_nothing_on_the_truncation(self, monkeypatch, name, m):
        entry = catalog.load(name)
        L, l, n = entry.algebra, len(entry.invariants), entry.algebra.dim
        rep, seen = self._spied_brackets(monkeypatch, L, entry.invariants, m)
        # each base invariant against the basis of L, and nothing on L<m>
        assert seen == [(n, list(range(n)))] * l
        assert _by_name(rep, "invariance").witness == {"mode": "symbolic",
                                                       "members": (m + 1) * l}
        assert _by_name(rep, "ideal-invariants").witness == {
            "mode": "symbolic", "generators": n + m * l, "ideal_size": m * n}

    def test_a_failed_invariance_brackets_one_target_per_check(self, monkeypatch, sl2):
        # h^2 + 3ef is no invariant: {f, e} != 0 names F_1^0 with e@0 and
        # F_1^1 with e@1, one bracket each on L<2>
        fs = InvariantSet(algebra=sl2.algebra,
                          polys=(parse_poly("h^2 + 3*e*f", sl2.algebra.basis),))
        rep, seen = self._spied_brackets(monkeypatch, sl2.algebra, fs, 2)
        assert seen == [(3, [0, 1, 2]), (9, [0]), (9, [3])]
        assert _by_name(rep, "invariance").witness == {
            "member": [1, 0], "basis_element": "e@0", "poisson_bracket": "e@2*h@2"}
        assert _by_name(rep, "ideal-invariants").witness == {
            "generator": "F_1^1", "ideal_element": "e@1", "poisson_bracket": "e@2*h@2"}

    @staticmethod
    def _multi_brackets(monkeypatch, L, fs, degrees):
        """(report, bracket calls as in `_spied_brackets`, report bracketing every member)."""
        seen = []

        def spy(alg, f, targets):
            seen.append((alg.dim, list(targets)))
            return bracket_defect_against(alg, f, targets)

        monkeypatch.setattr(liealg, "bracket_defect_against", spy)
        rep = verify_multi_current(L, fs, degrees, transfer_samples=2)
        monkeypatch.undo()
        monkeypatch.setattr(InvariantSet, "first_defect", _bracket_every_member)
        monkeypatch.setattr(raistauvel.InvariantFamily, "first_defect", _bracket_every_member)
        bracketed = verify_multi_current(L, fs, degrees, transfer_samples=2)
        monkeypatch.undo()
        return rep, seen, bracketed

    def test_a_passed_level_brackets_only_the_first_base(self, monkeypatch, sl3):
        # each level's base invariants are the previous level's family: its
        # first defect is read off the first base, and every byte is what
        # bracketing every member gives
        rep, seen, bracketed = self._multi_brackets(monkeypatch, sl3.algebra,
                                                    sl3.invariants, [1, 1, 1])
        assert seen == [(8, list(range(8)))] * 6
        assert [c.status for c in rep.checks if c.name.endswith("invariance")] == [PASS] * 3
        assert rep.to_json() == bracketed.to_json()

    def test_a_failed_level_brackets_only_the_first_base(self, monkeypatch, sl2):
        fs = InvariantSet(algebra=sl2.algebra,
                          polys=(parse_poly("h^2 + 3*e*f", sl2.algebra.basis),))
        rep, seen, bracketed = self._multi_brackets(monkeypatch, sl2.algebra, fs, [1, 2])
        # level 2 brackets the first base, then one target per check on L<1><2>
        assert seen == [(3, [0, 1, 2]), (6, [0]), (6, [3]),
                        (3, [0, 1, 2]), (18, [0]), (18, [6])]
        assert _by_name(rep, "level2:invariance").status == FAIL
        assert rep.to_json() == bracketed.to_json()

    @pytest.mark.parametrize("degrees", [[1, 1, 1], [2, 1, 1]])
    def test_the_first_defect_is_what_bracketing_every_member_finds(self, monkeypatch,
                                                                    sl3, degrees):
        # C2 and a non-invariant cubic: the defect sits at i = 2 on every level
        # of a depth-3 tower, and the FAIL witnesses are byte for byte the same
        C2, C3 = sl3.invariants.polys
        bad = C3 + parse_poly("h1^3", sl3.algebra.basis)
        fs = InvariantSet(algebra=sl3.algebra, polys=(C2, bad))
        chain = [fs]
        for m in degrees:
            chain.append(build_family(chain[-1], m))
        found = [level.first_defect() for level in chain]
        assert found == [_bracket_every_member(level) for level in chain]
        assert [i for i, _ in found] == [2] * len(chain)
        rep, _, bracketed = self._multi_brackets(monkeypatch, sl3.algebra, fs, degrees)
        assert [c.status for c in rep.checks if c.name.endswith("invariance")] == [FAIL] * 3
        assert rep.to_json() == bracketed.to_json()

    def test_jacobi_fail_with_an_invariant_brackets_the_base(self, monkeypatch):
        # [e, f] = e instead of h: Jacobi fails, and the sl2 Casimir is no
        # invariant; the lemma needs no Jacobi, so the base decides again
        bad = LieAlgebra.create("badsl2", ("e", "h", "f"), {
            (0, 1): {0: -2}, (0, 2): {0: 1}, (1, 2): {2: -2}})
        fs = InvariantSet(algebra=bad, polys=(parse_poly("h^2 + 4*e*f", bad.basis),))
        rep, seen = self._spied_brackets(monkeypatch, bad, fs, 2)
        assert _by_name(rep, "jacobi").status == FAIL
        assert seen == [(3, [0, 1, 2]), (9, [0]), (9, [3])]
        assert _by_name(rep, "invariance").status == FAIL
        assert _by_name(rep, "ideal-invariants").status == FAIL


def _tower(name, extra, degrees) -> list:
    """[fs, its family, ...]: a catalog entry's invariants, plus ``extra``, expanded."""
    entry = catalog.load(name)
    L = entry.algebra
    polys = entry.invariants.polys + ((parse_poly(extra, L.basis),) if extra else ())
    chain = [InvariantSet(algebra=L, polys=polys)]
    for m in degrees:
        chain.append(build_family(chain[-1], m))
    return chain


class TestTheSetsCertificate:
    """A set answers for its own step certificate, a family down its chain."""

    @pytest.mark.parametrize("name,extra,degrees", [
        ("sl2", None, [1, 1, 1]), ("sl2", "h^2 + 3*e*f", [1, 2, 1]),
        ("heis1", "x*z", [2, 1, 1]), ("slnV2", None, [1, 1, 1]),
        ("slnV2", "h*v11", [1, 1, 1]), ("sl3", "h1^3", [1, 1, 1])])
    def test_a_familys_first_defect_is_what_bracketing_every_member_finds(
            self, name, extra, degrees):
        chain = _tower(name, extra, degrees)
        found = [level.first_defect() for level in chain]
        assert found == [_bracket_every_member(level) for level in chain]
        # the base decides: an invariant base has no defect on any level
        assert len({d is None for d in found}) == 1
        assert (found[0] is None) == (extra is None)

    @pytest.mark.parametrize("name,degrees", [("sl2", [1, 1]), ("sl3", [1]), ("heis2", [2])])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_a_familys_omega_point_is_the_flat_search(self, name, degrees, seed):
        fam = _tower(name, None, degrees)[-1]
        flat = InvariantSet(algebra=fam.algebra, polys=fam.polys)
        r = sampling.rng(seed, sampling.TAG_OMEGA, 0, 0)
        draws = (sampling.random_coords(fam.algebra.basis, r) for _ in range(50))
        want = next(point for point in draws if liealg.omega_test(flat, point))
        assert fam.omega_point(seed) == want == flat.omega_point(seed)

    def test_an_empty_set_has_no_omega_point(self, sl2):
        assert InvariantSet(algebra=sl2.algebra, polys=()).omega_point(0) is None

    @pytest.mark.parametrize("depth", [0, 1])
    def test_a_dependent_set_gives_up_after_50_draws(self, monkeypatch, sl2, depth):
        # d(C^2) = 2C dC: the two are dependent everywhere, on every level
        (C,) = sl2.invariants.polys
        fs = InvariantSet(algebra=sl2.algebra, polys=(C, C * C))
        if depth:
            fs = build_family(fs, depth)
        real, drawn = sampling.random_coords, []
        monkeypatch.setattr(sampling, "random_coords",
                            lambda names, r: drawn.append(names) or real(names, r))
        assert fs.omega_point(3) is None
        assert drawn == [fs.algebra.basis] * 50


def _bracket_every_member(fs):
    """The first (i, x) with {f_i, x} != 0, every member of fs bracketed on its algebra."""
    for i, f in enumerate(fs.polys, start=1):
        found = invariance_defect(fs.algebra, f)
        if found is not None:
            return i, found[0]
    return None


def _no_zero_top_decision(monkeypatch):
    """Draw and rank every zero top: no rank bound, so no l-term and no skipped sample."""
    monkeypatch.setattr(verify, "_zero_top_rank_bound", lambda Lm, certified: Lm.dim)


def _structural_and_exact(monkeypatch, L, fs, m, **kwargs):
    """(report, block-triangle decisions, report with every rank taken from its matrix).

    ``m`` is a depth, or a degree list for `verify_multi_current`.  The
    second run ranks every Kirillov matrix, of L and of L<m>: no block
    triangle, no commuting-half block B(xi) in `InvariantSet.kirillov_rank_at`,
    no zero-top decision once per check, and no rank bound at a top with
    K(xi_m) = 0, neither mn nor the family's m(n - l).
    """
    structural = raistauvel.block_triangle_rank
    calls = []

    def spy(fam, top_rank):
        calls.append(top_rank)
        return structural(fam, top_rank)

    def run():
        if isinstance(m, list):
            return verify_multi_current(L, fs, m, **kwargs)
        return verify_main_theorem(L, fs, m, **kwargs)

    monkeypatch.setattr(raistauvel, "block_triangle_rank", spy)
    rep = run()
    monkeypatch.setattr(raistauvel, "block_triangle_rank", lambda fam, top_rank: None)
    monkeypatch.setattr(InvariantSet, "kirillov_rank_at",
                        lambda fs, point: liealg.kirillov_rank_at(fs.algebra, point))
    _no_zero_top_decision(monkeypatch)
    exact = run()
    monkeypatch.undo()
    return rep, len(calls), exact


def _exact_route_witnesses_agree(rep, exact):
    for name in ("index-formula", "magic-number", "regularity-transfer"):
        assert _by_name(rep, name).status == _by_name(exact, name).status
        assert _by_name(rep, name).witness == _by_name(exact, name).witness


ZERO_ROW_CASES = [(name, m) for name in catalog.NAMES for m in (1, 2, 3)] + [("sl2<1>", 1)]


@lru_cache(maxsize=None)
def _zero_row_case(name, m):
    """(L, L<m>) for a catalog entry, or for the base sl2<1> of sl2<1,1>'s level 2."""
    if name == "sl2<1>":
        L = takiff(catalog.load("sl2").algebra, 1)
    else:
        L = catalog.load(name).algebra
    return L, takiff(L, m)


class TestZeroRows:
    @pytest.mark.parametrize("case", ZERO_ROW_CASES, ids=_case_id)
    @settings(max_examples=3)
    @given(data=st.data())
    def test_zero_top_rank_is_at_most_mn(self, case, data):
        # the n rows of the top grade vanish wherever xi_m = 0
        L, Lm = _zero_row_case(*case)
        m, n = case[1], L.dim
        lower = data.draw(st.lists(st.integers(-50, 50), min_size=m * n, max_size=m * n))
        comps = [dict(zip(L.basis, lower[j * n:(j + 1) * n])) for j in range(m)]
        flat = flatten_point(Lm, comps + [dict.fromkeys(L.basis, 0)])
        assert linalg.rank(oracle_kirillov_matrix(Lm, flat)) <= m * n


# (entry, m, whether the zero-top rank bound decides); ab2-squares is open
ZERO_TOP_CASES = [("sl3", 2, True), ("slnV2", 1, True), ("sl2", 2, True),
                  ("heis1", 2, True), ("heis1+w", 2, True), ("ab2-squares", 2, False)]


def _zero_top_entry(name):
    """(L, fs): a catalog entry, heis1 + a central w, or the abelian ab2 with x^2, y^2.

    On heis1 + w, n = 4 and l = 2, so at m = 2 the zero tops are decided by
    m(n - l) = 4 < 6 = dim L<2> - ind L<2> alone: neither mn nor anything
    weaker than the whole l-term is below 6.  On ab2, n = l and every point
    is regular, so neither mn nor m(n - l) is below dim L<m> - ind L<m>.
    The squares vanish to second order at the zero top, so it fails
    `omega_test`, but the step is certified at another point, and there
    rank K(xi_m) = 0 = n - l lets the block triangle decide it.
    """
    if name == "heis1+w":
        L = LieAlgebra.create("heis1w", ("x", "y", "z", "w"), {(0, 1): {2: 1}})
        return L, InvariantSet(algebra=L, polys=(parse_poly("z", L.basis),
                                                  parse_poly("w", L.basis)))
    if name == "ab2-squares":
        ab = LieAlgebra.create("ab2", ("x", "y"), {})
        return ab, InvariantSet(algebra=ab, polys=tuple(parse_poly(f, ab.basis)
                                                        for f in ("x^2", "y^2")))
    entry = catalog.load(name)
    return entry.algebra, entry.invariants


def _kirillov_matrices(monkeypatch, L, fs, m):
    """(report, (width, zero top?) of every Kirillov matrix built), 20 transfer samples."""
    kirillov_matrix = liealg.kirillov_matrix
    built = []

    def spy(alg, point):
        # a point arrives as a mapping or as its coordinate list
        grading = alg.grading
        top = liealg.check_point(alg, point)[grading.depth * grading.base_dim if grading else 0:]
        built.append((alg.dim, not any(top)))
        return kirillov_matrix(alg, point)

    monkeypatch.setattr(liealg, "kirillov_matrix", spy)
    rep = verify_main_theorem(L, fs, m, transfer_samples=20)
    monkeypatch.setattr(liealg, "kirillov_matrix", kirillov_matrix)
    return rep, built


def _zero_tops(built) -> list:
    return [width for width, zero in built if zero]


def _zero_top_bound_decides(L, fs, m) -> bool:
    # with a certified family the zero tops have rank <= m(n - l)
    n = L.dim
    return m * (n - len(fs)) < (m + 1) * (n - liealg.index(L))


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

    @pytest.mark.parametrize("name,m", [("slnV3", 2), ("heis2", 3), ("sl3", 4),
                                        ("slnV2", [1, 2])])
    def test_commuting_halves_leave_every_byte_unchanged(self, monkeypatch, name, m):
        # slnV2, slnV3 and heis2 rank their certified tops through B(xi); sl3
        # has no commuting half, so both runs rank its matrices
        entry = catalog.load(name)
        rep, calls, exact = _structural_and_exact(
            monkeypatch, entry.algebra, entry.invariants, m, transfer_samples=25)
        assert calls > 0
        assert rep.summary == PASS
        assert rep.to_json() == exact.to_json()

    def test_abelian_zero_top_is_regular_on_both_routes(self, monkeypatch):
        # n = l: every point is regular, the zero top included, so the zero
        # rows decide nothing and the zero tops take the block-triangle rank
        ab = LieAlgebra.create("ab2", ("x", "y"), {})
        fs = InvariantSet(algebra=ab, polys=(parse_poly("x", ab.basis), parse_poly("y", ab.basis)))
        rep, calls, exact = _structural_and_exact(monkeypatch, ab, fs, 2,
                                                  transfer_samples=20)
        assert calls > 0
        assert rep.summary == PASS
        assert _by_name(rep, "regularity-transfer").witness == {
            "samples": 20, "agreements": 20, "regular_cases": 20, "singular_cases": 0}
        assert rep.to_json() == exact.to_json()

    @pytest.mark.parametrize("name,m,decided", ZERO_TOP_CASES)
    def test_zero_tops_build_no_matrix_where_the_zero_rows_decide(
            self, monkeypatch, name, m, decided):
        L, fs = _zero_top_entry(name)
        assert decided == _zero_top_bound_decides(L, fs, m)
        rep, built = _kirillov_matrices(monkeypatch, L, fs, m)
        assert rep.summary == PASS
        # a zero top is never ranked on its own, and where the rank bound
        # leaves a sample open (n = l) the certified block triangle decides it
        assert _zero_tops(built) == []

    def test_a_derivative_identity_defect_is_refused_before_any_check(self, monkeypatch,
                                                                       sl2):
        # 2 * F_1^1 is still an invariant, with the right degree and weight,
        # but its grade-1 partials are twice df/db at grade 2: the omega
        # certificates would not hold, and the family is never built
        def doubled(*args):
            out = jet_substitute(*args)
            out[1] = out[1] * 2
            return out

        monkeypatch.setattr(raistauvel, "jet_substitute", doubled)
        with pytest.raises(liealg.AlgebraError, match=r"\(1,1\): the partial in 'e@1'"):
            verify_main_theorem(sl2.algebra, sl2.invariants, 2, transfer_samples=20)

    def test_a_failed_invariance_takes_the_exact_route(self, monkeypatch, sl2):
        bad = InvariantSet(algebra=sl2.algebra,
                           polys=(parse_poly("h^2 + 3*e*f", sl2.algebra.basis),))
        rep, calls, exact = _structural_and_exact(
            monkeypatch, sl2.algebra, bad, 2, transfer_samples=20)
        assert _by_name(rep, "invariance").status == FAIL
        assert calls == 0
        _exact_route_witnesses_agree(rep, exact)


class TestZeroTopBoundFallback:
    """Without the step certificate the zero tops fall back to mn.

    On sl2<2>, mn = 6 = dim L<2> - ind L<2>, so the zero-row bound leaves
    every zero top open, and each builds its 9-wide L<2> matrix.
    """

    @staticmethod
    def _without_the_l_term(monkeypatch, L, fs, m):
        bound = verify._zero_top_rank_bound
        monkeypatch.setattr(verify, "_zero_top_rank_bound",
                            lambda Lm, certified: bound(Lm, None))
        return verify_main_theorem(L, fs, m, transfer_samples=20)

    @pytest.mark.parametrize("case,failed", [("none", "jacobian-rank-on-omega"),
                                             ("dependent", "jacobian-rank-on-omega"),
                                             ("non-invariant", "invariance")])
    def test_an_uncertified_step_ranks_its_zero_tops(self, monkeypatch, sl2, case, failed):
        L = sl2.algebra
        (C,) = sl2.invariants.polys
        # h^2 + 3ef is no invariant, but its expansion keeps the derivative identity
        D = parse_poly("h^2 + 3*e*f", L.basis)
        fs = InvariantSet(algebra=L, polys={"none": (), "dependent": (C, C * C),
                                            "non-invariant": (D,)}[case])
        if case == "non-invariant":
            assert oracle_identity_defect(build_family(fs, 2)) is None
        rep, built = _kirillov_matrices(monkeypatch, L, fs, 2)
        assert _by_name(rep, failed).status == (SKIPPED if case == "none" else FAIL)
        assert _zero_tops(built) == [9] * 10
        assert rep.to_json() == self._without_the_l_term(monkeypatch, L, fs, 2).to_json()
        monkeypatch.undo()

    def test_a_failed_omega_search_takes_the_exact_route(self, monkeypatch, sl2):
        # invariance PASSes, but with no Omega point the step holds no
        # certificate: no certified set for the index, no block triangle and
        # no l-term, so every L<2> rank comes from its matrix, zero tops
        # included
        monkeypatch.setattr(InvariantSet, "omega_point", lambda fs, seed: None)
        seen = _index_trials(monkeypatch)
        rep, built = _kirillov_matrices(monkeypatch, sl2.algebra, sl2.invariants, 2)
        assert _by_name(rep, "invariance").status == PASS
        assert _by_name(rep, "jacobian-rank-on-omega").status == FAIL
        assert [ceiling for _, ceiling, _ in seen] == [3, 9]
        assert _zero_tops(built) == [9] * 10
        rep, calls, exact = _structural_and_exact(monkeypatch, sl2.algebra, sl2.invariants,
                                                  2, transfer_samples=20)
        assert calls == 0
        assert rep.to_json() == exact.to_json()


def _stream_spy(monkeypatch) -> list:
    """Record (prefix, t) for every stream a sampled loop creates."""
    made = []
    streams = sampling.streams

    def spy(seed, *prefix):
        stream = streams(seed, *prefix)

        def counted(t):
            made.append((prefix, t))
            return stream(t)

        return counted

    monkeypatch.setattr(sampling, "streams", spy)
    return made


class TestOmegaCertificates:
    """Both omega checks rest on the derivative identity, not on sampled points."""

    @pytest.mark.parametrize("name,m", [("sl2", 2), ("heis1", 3), ("slnV2", 1)])
    def test_omega_checks_draw_one_point(self, monkeypatch, name, m):
        entry = catalog.load(name)
        made = _stream_spy(monkeypatch)
        rng = sampling.rng
        one_off = []

        def spy(seed, *parts):
            one_off.append(parts)
            return rng(seed, *parts)

        monkeypatch.setattr(sampling, "rng", spy)
        rep = verify_main_theorem(entry.algebra, entry.invariants, m, transfer_samples=7)
        monkeypatch.undo()
        assert rep.summary == PASS
        assert not [t for prefix, t in made if prefix == (sampling.TAG_OMEGA, 1)]
        assert [p for p in one_off if p[0] == sampling.TAG_OMEGA] == [(sampling.TAG_OMEGA, 0, 0)]
        assert _by_name(rep, "jacobian-rank-on-omega").witness == {
            "mode": "derivative-identity", "rank": (m + 1) * len(entry.invariants)}
        assert _by_name(rep, "omega-transfer").witness == {"mode": "derivative-identity"}

    @pytest.mark.parametrize("degrees", [[4], [2, 2]])
    def test_omega_test_runs_only_in_the_first_omega_search(self, monkeypatch, sl3, degrees):
        # the step certificate needs one Omega point; the block triangles at
        # the regularity tops and the index trials ask no omega_test.  Only
        # the first level's search asks it, on the base invariants; a later
        # level's search asks family_rank_at of the previous family, which
        # decides at the first base
        real, real_rank, real_build = (liealg.omega_test, raistauvel.family_rank_at,
                                       raistauvel.build_family)
        calls, ranked, families = [], [], []

        def spy(fs, point):
            calls.append((sys._getframe(1).f_code.co_name, fs, set(point)))
            return real(fs, point)

        def rank_spy(fam, flat):
            ranked.append((sys._getframe(1).f_code.co_name, fam))
            return real_rank(fam, flat)

        def build(*args):
            families.append(real_build(*args))
            return families[-1]

        def run():
            if len(degrees) == 1:
                return verify_main_theorem(sl3.algebra, sl3.invariants, degrees[0],
                                           transfer_samples=20)
            return verify_multi_current(sl3.algebra, sl3.invariants, degrees,
                                        transfer_samples=20)

        for name, module in list(sys.modules.items()):
            if name.startswith("takiffalg") and getattr(module, "omega_test", None) is real:
                monkeypatch.setattr(module, "omega_test", spy)
        monkeypatch.setattr(raistauvel, "family_rank_at", rank_spy)
        monkeypatch.setattr(raistauvel, "build_family", build)
        rep = run()
        monkeypatch.undo()
        assert rep.summary == PASS
        assert [(caller, id(fs), names) for caller, fs, names in calls] == \
            [("_independent_at", id(sl3.invariants), set(sl3.algebra.basis))]
        searched = {id(fam) for caller, fam in ranked if caller == "_independent_at"}
        assert searched == {id(fam) for fam in families[:-1]}
        assert {caller for caller, _ in ranked} <= {
            "_independent_at", "_jacobian_rank_check", "family_rank_at"}
        # the same report when every family rank is the full member Jacobian
        monkeypatch.setattr(raistauvel, "family_rank_at", lambda fam, flat: linalg.rank(
            [F.gradient_at(flat) for F in fam.polys]))
        members = run()
        monkeypatch.undo()
        assert members.to_json() == rep.to_json()

    # tops with one root coordinate are nonzero and outside Omega; e12 + e23 is
    # the regular nilpotent, in Omega
    @pytest.mark.parametrize("top,in_omega", [({"e13": 1}, False), ({"e21": 1}, False),
                                              ({"e12": 1, "e23": 1}, True)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_full_family_rank_iff_the_top_is_in_omega(self, sl3, m, top, in_omega):
        L, fs = sl3.algebra, sl3.invariants
        fam = build_family(fs, m)
        Lm = fam.algebra
        comps = random_components(L.basis, m, sampling.rng(m, sampling.TAG_OMEGA), bound=60)
        comps[m] = {b: top.get(b, 0) for b in L.basis}
        flat = flatten_point(Lm, comps)
        point = {b: Fraction(v) for b, v in flat.items()}
        rows = []
        for _, _, F in fam.members():
            grad = dict(zip(F.varset, oracle_gradient_at(F, point)))
            rows.append([grad.get(b, Fraction(0)) for b in Lm.basis])
        rank = naive_rank(rows)
        assert liealg.omega_test(fs, comps[m]) is in_omega
        assert (rank == (m + 1) * fam.l) is in_omega
        assert rank == raistauvel.family_rank_at(fam, flat)


class TestZeroTopOnce:
    """A zero top that decides both sides is settled once per check, with no stream."""

    @pytest.mark.parametrize("name,m,decided", ZERO_TOP_CASES)
    def test_regularity_transfer_draws_the_zero_tops_only_when_open(
            self, monkeypatch, name, m, decided):
        L, fs = _zero_top_entry(name)
        assert decided == _zero_top_bound_decides(L, fs, m)
        made = _stream_spy(monkeypatch)
        rep = verify_main_theorem(L, fs, m, transfer_samples=20)
        monkeypatch.undo()
        assert rep.summary == PASS
        drawn = [t for prefix, t in made if prefix == (sampling.TAG_REGULARITY,)]
        assert drawn == list(range(0, 20, 2 if decided else 1))

    @pytest.mark.parametrize("certified", [True, False])
    def test_a_disagreeing_zero_top_fails_with_the_drawn_point(self, monkeypatch, sl3,
                                                              certified):
        # with ind L = n every top reads regular only at rank 0, and with one
        # more than ind L<2> no L<2> point reads regular: sample 0 agrees, and
        # the zero top of sample 1 is the first disagreement, (False, True)
        L = sl3.algebra
        fam = build_family(sl3.invariants, 2)
        Lm = fam.algebra
        args = (L, Lm, fam if certified else None, L.dim, liealg.index(Lm) + 1, 20, 0)
        check = verify._regularity_transfer_check(*args)
        _no_zero_top_decision(monkeypatch)
        drawn = verify._regularity_transfer_check(*args)
        monkeypatch.undo()
        assert check.status == drawn.status == FAIL
        assert check.witness["sample"] == 1
        assert (check.witness["takiff_regular"], check.witness["top_component_regular"]) == \
            (False, True)
        assert not any(int(v) for v in check.witness["point"][2].values())
        assert check.witness == drawn.witness


def _table_spy(monkeypatch) -> list:
    """The labels of the truncations whose deferred bracket table gets built."""
    real, built = takiffalg.takiff._truncated_table, []

    def spy(L, m):
        built.append(f"{L.label}<{m}>")
        return real(L, m)

    monkeypatch.setattr(takiffalg.takiff, "_truncated_table", spy)
    return built


class TestDeferredTable:
    """A `verify` step builds the L<m> bracket table only where it reads it."""

    @pytest.mark.parametrize("name,degrees", [("sl3", [4]), ("slnV3", [2]),
                                              ("sl3", [2, 2, 2])])
    def test_a_certified_verify_builds_no_truncated_table(self, monkeypatch, name, degrees):
        entry = catalog.load(name)
        built = _table_spy(monkeypatch)
        rep = verify_multi_current(entry.algebra, entry.invariants, degrees)
        assert rep.summary == PASS
        assert built == []

    @pytest.mark.parametrize("case,want", [
        ("verify-m4-sl3", []),
        ("verify-m2-slnV3", []),
        ("verify-m2-invariance-fail-sl2", ["sl2h3ef<2>"]),
        ("verify-multi12-invariance-fail-sl2", ["sl2h3ef<1>", "sl2h3ef<1><2>"]),
    ])
    def test_the_golden_reports_build_only_what_they_read(self, monkeypatch, tmp_path,
                                                          capsys, case, want):
        # an invariance defect names a bracket on L<m> and leaves the step
        # uncertified, so each level builds its table, once
        built = _table_spy(monkeypatch)
        test_report_bytes.test_report_digest(tmp_path, capsys, case)
        assert sorted(built) == want

    def test_full_rank_tops_rank_no_truncated_matrix(self, monkeypatch):
        # ind affine2 = 0: a top of rank n makes K(xi) on L<1> invertible
        L = catalog.load("affine2").algebra
        Lm, streams = takiff(L, 1), sampling.streams(3, sampling.TAG_REGULARITY)
        matrix, widths = liealg.kirillov_matrix, []
        monkeypatch.setattr(liealg, "kirillov_matrix",
                            lambda alg, point: widths.append(alg.dim) or matrix(alg, point))
        built = _table_spy(monkeypatch)
        check = verify._regularity_transfer_check(L, Lm, None, 0, 0, 100, 3)
        monkeypatch.undo()
        assert set(widths) == {L.dim} and built == []
        regular = 0
        for t in range(0, 100, 2):
            comps = random_components(L.basis, 1, streams(t))
            top = is_regular(L, comps[1], 0)
            assert is_regular(Lm, flatten_point(Lm, comps), 0) == top
            regular += top
        assert check.status == PASS
        assert check.witness["regular_cases"] == regular

    def test_a_fail_witness_names_the_drawn_components(self, sl3):
        # sample 1's zero top disagrees (see TestZeroTopOnce); its lower
        # components are the ones the stream's first 2n draws give
        L, fam = sl3.algebra, build_family(sl3.invariants, 2)
        check = verify._regularity_transfer_check(L, fam.algebra, fam, L.dim,
                                                  liealg.index(fam.algebra) + 1, 20, 0)
        assert check.witness["sample"] == 1
        comps = random_components(L.basis, 2, sampling.rng(0, sampling.TAG_REGULARITY, 1))
        comps[2] = dict.fromkeys(L.basis, 0)
        assert check.witness["point"] == [{b: str(v) for b, v in c.items()} for c in comps]
