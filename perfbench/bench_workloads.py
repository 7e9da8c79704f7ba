"""Workload job lists and the seed-independent facts each job must report.

Imported only after `run.py` has put the checkout's `src` first on the path.
Every job calls the program through a module attribute at call time, so the
tracer's wrappers see the call.  The per-job `seed=` values are derived from
the workload seed here; the program sees only those.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from takiffalg import catalog, nilfiber, verify
from takiffalg.report import FAIL, PASS, SAMPLED_PASS, SKIPPED, Report

# The benchmark's own copy of the catalog facts: (index, magic, degrees).
# Deliberately not read from catalog.load(...).expected, so a change to the
# catalog data cannot move the yardstick it is measured against.
FACTS = {
    "sl2": (1, 2, (2,)),
    "sl3": (2, 5, (2, 3)),
    "heis1": (1, 2, (1,)),
    "heis2": (1, 3, (1,)),
    "affine2": (0, 1, ()),
    "slnV2": (1, 4, (2,)),
    "slnV3": (1, 9, (3,)),
    "nilrad_sl3": (1, 2, (1,)),
}

# The catalog sweep's degree table: the benchmark's own copy of the one in
# scripts/verify_catalog.py, so that script can go without moving the workload.
SWEEP_DEGREES = {
    "sl2": (1, 2, 3),
    "sl3": (1,),
    "heis1": (1, 2, 3),
    "heis2": (1, 2, 3),
    "affine2": (1,),
    "slnV2": (1, 2),
    "slnV3": (1,),
    "nilrad_sl3": (1, 2),
}

# Past SYMBOLIC_DIM_BUDGET: invariance and ideal checks take the sampled route.
SAMPLED_LARGE = (("sl3", 4), ("slnV3", 2))
# Fewer points than the defaults (200 and 100) so that a 30 s run times each
# job several times; at 200 points a job took up to 15 s and the figures of
# one- and two-sample runs spread by more than 12 % on a shared 2-core host.
# The sampled checks still dominate the time.
SAMPLED_LARGE_POINTS = {"eval_samples": 50, "transfer_samples": 25}

NULLFIBER_CHAINS = 200

VERIFY_CHECKS = ("jacobi", "invariance", "ideal-invariants", "index-formula",
                 "magic-number", "degree-sum", "jacobian-rank-on-omega",
                 "omega-transfer", "regularity-transfer")
_NEEDS_INVARIANTS = {"invariance", "degree-sum", "jacobian-rank-on-omega",
                     "omega-transfer"}
_SAMPLED_CHECKS = {"invariance", "ideal-invariants"}


@dataclass(frozen=True)
class Expect:
    """One pinned check: its name, status, and witness entries that must match."""

    name: str
    status: str
    witness: tuple = ()


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[], Report]
    expect: tuple[Expect, ...]
    # A verify-style verdict (verify_main_theorem, sl2_chain) counts towards
    # job_p50_s; catalog self-tests and wonderful diagnostics, a few ms each,
    # would put the sweep's median in the gap between the two groups.
    verdict: bool = True


def job_seed(workload: str, seed: int, job: str) -> int:
    digest = hashlib.blake2b(f"{workload}/{seed}/{job}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "big") >> 1


def mismatches(report: Report, expect: tuple[Expect, ...]) -> list[str]:
    """Differences from the pinned facts; SAMPLED-PASS -> PASS is allowed."""
    got = [c.name for c in report.checks]
    want = [e.name for e in expect]
    if got != want:
        return [f"checks {got} != pinned {want}"]
    out = []
    for check, e in zip(report.checks, expect):
        if check.status != e.status and not (e.status == SAMPLED_PASS
                                             and check.status == PASS):
            out.append(f"{check.name}: status {check.status} != pinned {e.status}")
        witness = check.witness if isinstance(check.witness, dict) else {}
        for key, value in e.witness:
            if witness.get(key) != value:
                out.append(f"{check.name}: witness {key}={witness.get(key)!r} "
                           f"!= pinned {value!r}")
    return out


def _verify_expect(name: str, m: int, sampled: bool) -> tuple[Expect, ...]:
    idx, magic, degrees = FACTS[name]
    out = []
    for check in VERIFY_CHECKS:
        status, witness = PASS, ()
        if not degrees and check in _NEEDS_INVARIANTS:
            status = SKIPPED
        elif sampled and check in _SAMPLED_CHECKS:
            status = SAMPLED_PASS
        if check == "index-formula":
            witness = (("base_index", idx), ("takiff_index", (m + 1) * idx))
        elif check == "magic-number":
            witness = (("base_magic", magic), ("takiff_magic", (m + 1) * magic))
        elif check == "degree-sum" and degrees:
            witness = (("base_degree_sum", sum(degrees)),
                       ("family_degree_sum", (m + 1) * sum(degrees)))
        out.append(Expect(check, status, witness))
    return tuple(out)


def _self_test_expect(name: str) -> tuple[Expect, ...]:
    idx, magic, degrees = FACTS[name]
    out = [Expect("jacobi", PASS), Expect("invariants-symbolic", PASS),
           Expect("expected-degrees", PASS, (("degrees", list(degrees)),)),
           Expect("expected-index", PASS, (("index", idx),)),
           Expect("expected-magic", PASS, (("magic", magic),))]
    if name == "sl2":
        out.append(Expect("parametrization:nilcone", PASS))
    return tuple(out)


def _wonderful_expect(name: str) -> tuple[Expect, ...]:
    idx, magic, degrees = FACTS[name]
    # FAIL here is the expected verdict: the degree sum refutes codim-2.
    holds = sum(degrees) == magic
    return (Expect("invariant-count-vs-index", PASS, (("index", idx),)),
            Expect("criterion-iii-degree-sum", PASS if holds else FAIL,
                   (("degree_sum", sum(degrees)), ("magic", magic))))


# Held for chain seeds 0-199 at the commit that introduced the benchmark.
_CHAIN_EXPECT = (
    Expect("n1:null-fiber-characterization", PASS),
    Expect("n1:lemma-bounds", PASS, (("violations", []),)),
    Expect("level1:stratum:origin", PASS, (("total", 3),)),
    Expect("level1:stratum:principal-nilpotent", PASS, (("total", 4),)),
    Expect("level1:equidim-verdict", PASS,
           (("totals", {"origin": 3, "principal-nilpotent": 4}),)),
    Expect("level2:stratum:regular", PASS, (("total", 8),)),
    Expect("level2:stratum:degenerate", PASS, (("total", 8),)),
    Expect("level2:equidim-verdict", PASS,
           (("totals", {"regular": 8, "degenerate": 8}),
            ("reducibility_evidence", True))),
    Expect("level3:stratum:bad-component", PASS, (("total", 17),)),
    Expect("level3:equidim-verdict", PASS,
           (("totals", {"bad-component": 17}),
            ("excess_strata", ["bad-component"]))),
)


def _verify_job(workload, seed, entries, name, m, sampled, **points) -> Job:
    label = f"verify:{name}<{m}>"
    s = job_seed(workload, seed, label)
    e = entries[name]
    return Job(label,
               lambda: verify.verify_main_theorem(e.algebra, e.invariants, m,
                                                  seed=s, **points),
               _verify_expect(name, m, sampled))


def _sampled_large(seed: int, entries: dict) -> list[Job]:
    return [_verify_job("sampled-large", seed, entries, name, m, True,
                        **SAMPLED_LARGE_POINTS)
            for name, m in SAMPLED_LARGE]


def _symbolic_sweep(seed: int, entries: dict) -> list[Job]:
    w = "symbolic-sweep"
    jobs = []
    for name in catalog.NAMES:
        s = job_seed(w, seed, f"self-test:{name}")
        e = entries[name]
        jobs.append(Job(f"self-test:{name}",
                        lambda e=e, s=s: catalog.self_test(e, seed=s),
                        _self_test_expect(name), verdict=False))
    for name in catalog.NAMES:
        jobs += [_verify_job(w, seed, entries, name, m, False)
                 for m in SWEEP_DEGREES[name]]
    for name in catalog.NAMES:
        if not FACTS[name][2]:
            continue
        s = job_seed(w, seed, f"wonderful:{name}")
        e = entries[name]
        jobs.append(Job(f"wonderful:{name}",
                        lambda e=e, s=s: verify.wonderful_diagnostic(
                            e.algebra, e.invariants, seed=s),
                        _wonderful_expect(name), verdict=False))
    return jobs


def _nullfiber_seeds(seed: int, entries: dict) -> list[Job]:
    jobs = []
    for k in range(NULLFIBER_CHAINS):
        s = job_seed("nullfiber-seeds", seed, f"chain:{k}")
        jobs.append(Job(f"sl2_chain:{k}",
                        lambda s=s: nilfiber.sl2_chain(levels=3, seed=s),
                        _CHAIN_EXPECT))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    entries: tuple[str, ...]        # catalog entries loaded during set-up
    jobs: Callable[[int, dict], list[Job]]


WORKLOADS = {w.name: w for w in (
    Workload("sampled-large", ("sl3", "slnV3"), _sampled_large),
    Workload("symbolic-sweep", catalog.NAMES, _symbolic_sweep),
    Workload("nullfiber-seeds", ("sl2",), _nullfiber_seeds),
)}
