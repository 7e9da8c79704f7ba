"""Acceptance suite: ten structural criteria on the bundled catalog.

Each test prints exactly one pass/fail line (visible under ``pytest -s``).
The checks run on exact rational arithmetic with fixed seeds; the few timed
criteria assert the stated wall-clock budgets.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from takiffalg import catalog, sampling
from takiffalg.liealg import index, invariance_defect, omega_test
from takiffalg.nilfiber import check_N1_characterization, sl2_chain, stratum_index
from takiffalg.raistauvel import build_family, family_rank_at
from takiffalg.report import PASS
from takiffalg.takiff import takiff
from takiffalg.verify import verify_main_theorem, wonderful_diagnostic

from oracles import graded_parts, is_regular, n1_characterization, null_fiber_member
from oracles import flatten_point, random_components

INDEX_PAIRS = [(name, m) for name in ("sl2", "sl3", "heis1", "heis2", "slnV2")
               for m in (1, 2, 3)]
SYMBOLIC_FAMILIES = [("sl2", 1), ("sl2", 2), ("sl2", 3), ("sl3", 1),
                     ("heis1", 1), ("heis1", 2), ("heis1", 3),
                     ("heis2", 1), ("heis2", 2), ("heis2", 3),
                     ("slnV2", 1), ("slnV2", 2)]


def _emit(num: int, desc: str, ok: bool, extra: str = "") -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}{extra}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def families():
    out = {}
    for name, m in SYMBOLIC_FAMILIES:
        entry = catalog.load(name)
        out[(name, m)] = build_family(entry.invariants, m)
    return out


@pytest.fixture(scope="module")
def base_indices():
    return {name: index(catalog.load(name).algebra, trials=5, seed=0)
            for name, _ in INDEX_PAIRS}


@pytest.fixture(scope="module")
def n1_report(sl2):
    cone = sl2.parametrizations["nilcone"]
    return check_N1_characterization(build_family(sl2.invariants, 1),
                                     seed=0, cone=cone.sample)


@pytest.fixture(scope="module")
def chain_report():
    return sl2_chain(levels=3, seed=0)


def test_criterion_1_index_formula(base_indices):
    t0 = time.monotonic()
    ok = True
    for name, m in INDEX_PAIRS:
        L = catalog.load(name).algebra
        got = index(takiff(L, m), trials=5, seed=0)
        if got != (m + 1) * base_indices[name]:
            ok = False
            break
    elapsed = time.monotonic() - t0
    _emit(1, "index formula ind q<m> = (m+1) ind q on 15 pairs", ok and elapsed < 10.0,
          f" ({elapsed:.2f} s)")


def test_criterion_2_symbolic_invariance():
    t0 = time.monotonic()
    ok = True
    for name, m in SYMBOLIC_FAMILIES:
        entry = catalog.load(name)
        fam = build_family(entry.invariants, m)
        Lm = fam.algebra
        for _, _, F in fam.members():
            if invariance_defect(Lm, F) is not None:
                ok = False
                break
        if not ok:
            break
    elapsed = time.monotonic() - t0
    _emit(2, "exact invariance of every expansion coefficient", ok and elapsed < 60.0,
          f" ({elapsed:.2f} s)")


def test_criterion_3_triangularity_and_degrees(families):
    ok = True
    for (name, m), fam in families.items():
        base_sum = sum(fam.base.degrees())
        fam_sum = 0
        for i, j, F in fam.members():
            fam_sum += F.degree()
            if F.degree() != fam.base.polys[i - 1].degree():
                ok = False
            if min(graded_parts(F.varset[k])[1] for mono in F.terms for k, _ in mono) < m - j:
                ok = False
        if fam_sum != (m + 1) * base_sum:
            ok = False
        entry = catalog.load(name)
        b = (entry.algebra.dim + entry.expected["index"]) // 2
        if base_sum == b and fam_sum != (m + 1) * b:
            ok = False
    _emit(3, "triangular supports, preserved degrees, degree-sum identity", ok)


def _transfer_points(L, m, tag, pair_id):
    for t in range(100):
        r = sampling.rng(0, tag, pair_id, t)
        comps = random_components(L.basis, m, r, bound=60)
        if t % 2:
            comps[m] = {b: Fraction(0) for b in L.basis}
        yield comps


def test_criterion_4_omega_transfer():
    agree = 0
    total = 0
    for pair_id, (name, m) in enumerate(INDEX_PAIRS):
        entry = catalog.load(name)
        fam = build_family(entry.invariants, m)
        want = (m + 1) * fam.l
        for comps in _transfer_points(entry.algebra, m, sampling.TAG_OMEGA, pair_id):
            total += 1
            lhs = family_rank_at(fam, flatten_point(fam.algebra, comps)) == want
            rhs = omega_test(entry.invariants, comps[m])
            agree += lhs == rhs
    _emit(4, f"Omega transfer at {total} points", agree == total == 1500,
          f" ({agree}/{total})")


def test_criterion_5_regularity_transfer(base_indices):
    agree = 0
    total = 0
    for pair_id, (name, m) in enumerate(INDEX_PAIRS):
        L = catalog.load(name).algebra
        Lm = takiff(L, m)
        idx_base = base_indices[name]
        idx_tak = (m + 1) * idx_base
        for comps in _transfer_points(L, m, sampling.TAG_REGULARITY, pair_id):
            total += 1
            lhs = is_regular(Lm, flatten_point(Lm, comps), idx_tak)
            rhs = is_regular(L, comps[m], idx_base)
            agree += lhs == rhs
    _emit(5, f"regularity transfer at {total} points", agree == total == 1500,
          f" ({agree}/{total})")


def test_criterion_6_codim2_refutation():
    expected = {"slnV2": "codim-2 refuted: 2 < 4",
                "heis1": "codim-2 refuted: 1 < 2",
                "heis2": "codim-2 refuted: 1 < 3"}
    ok = True
    for name, note in expected.items():
        entry = catalog.load(name)
        rep = wonderful_diagnostic(entry.algebra, entry.invariants)
        (check,) = [c for c in rep.checks if c.name == "criterion-iii-degree-sum"]
        if check.witness.get("note") != note or check.witness["codim2_refuted"] is not True:
            ok = False
    _emit(6, "codim-2 refutations report the paper's exact integers", ok)


def test_criterion_7_n1_characterization(sl2, sl2_family_m1, n1_report, n1_points):
    # the certificate, and its claim cross-checked by the oracle at 50 points
    (check,) = [c for c in n1_report.checks
                if c.name == "null-fiber-characterization"]
    certified = (check.status == PASS and check.seed is None
                 and check.witness == {"mode": "derivative-identity"})
    pairs = [(null_fiber_member(sl2_family_m1, [xi0, xi1]),
              n1_characterization(sl2.invariants.polys, xi0, xi1))
             for xi0, xi1 in n1_points(sl2)]
    agree = sum(lhs == rhs for lhs, rhs in pairs)
    members = sum(lhs for lhs, _ in pairs)
    ok = certified and agree == 50 and 0 < members < 50
    _emit(7, "depth-one null fiber membership equivalence on sl2", ok,
          f" (certified; {agree}/50 sampled)")


def test_criterion_8_equidimensionality_chain(chain_report):
    t0 = time.monotonic()
    rep = sl2_chain(levels=3, seed=0)
    elapsed = time.monotonic() - t0
    by_name = {c.name: c for c in rep.checks}
    lvl1 = by_name["level1:stratum:principal-nilpotent"].witness
    lvl2 = by_name["level2:equidim-verdict"].witness
    lvl3 = by_name["level3:stratum:bad-component"].witness
    ok = (rep.summary == PASS
          and lvl1["total"] == 4 and lvl1["target"] == 4 and not lvl1["excess"]
          and lvl2["totals"] == {"degenerate": 8, "regular": 8}
          and lvl2["reducibility_evidence"] is True
          and "degenerate" in lvl2["strata_avoiding_omega"]
          and lvl3["total"] == 17 and lvl3["target"] == 16 and lvl3["excess"] is True
          and rep.to_json() == chain_report.to_json())
    _emit(8, "three-level chain: 4 = 4, reducibility evidence, 17 > 16",
          ok and elapsed < 120.0, f" ({elapsed:.2f} s)")


def test_criterion_9_lemma_bounds(sl2_family_m1, n1_report, n1_points, sl2):
    # the certificate's witness rank, and the bounds at 50 points of q<1>*
    (check,) = [c for c in n1_report.checks if c.name == "lemma-bounds"]
    w = check.witness
    certified = (check.status == PASS and w["mode"] == "derivative-identity"
                 and w["violations"] == [] and w["i"] == 1
                 and w["lower"] == 2 * w["i"] <= w["J"] <= w["upper"] == 1 + w["i"])
    fam = sl2_family_m1
    violations = 0
    for xi0, xi1 in n1_points(sl2):
        i = stratum_index(sl2.invariants, xi1)
        J = family_rank_at(fam, flatten_point(fam.algebra, [xi0, xi1]))
        violations += not 2 * i <= J <= fam.l + i
    _emit(9, "span-containment bounds 2i <= J <= l+i with zero violations",
          certified and violations == 0, " (certified; 50 sampled points)")


def test_criterion_10_determinism(sl2, n1_report, chain_report):
    cone = sl2.parametrizations["nilcone"]
    rerun_n1 = check_N1_characterization(build_family(sl2.invariants, 1),
                                         seed=0, cone=cone.sample)
    rerun_chain = sl2_chain(levels=3, seed=0)
    verify_a = verify_main_theorem(sl2.algebra, sl2.invariants, 2, seed=0)
    verify_b = verify_main_theorem(sl2.algebra, sl2.invariants, 2, seed=0)
    ok = (rerun_n1.to_json() == n1_report.to_json()
          and rerun_chain.to_json() == chain_report.to_json()
          and verify_a.to_json() == verify_b.to_json())
    _emit(10, "byte-identical reports under repeated identical runs", ok)
