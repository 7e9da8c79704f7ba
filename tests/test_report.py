"""Check timings: a report's one clock charges every second to some check.

Report bytes: `Report.to_json` writes what the plain `json.dumps` route of
`oracles.report_json` writes, on drawn witnesses and on real reports.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import takiffalg
from takiffalg import catalog, report
from takiffalg.nilfiber import sl2_chain
from takiffalg.report import PASS, Check, Report
from takiffalg.verify import verify_main_theorem, verify_multi_current

from oracles import report_json


@pytest.fixture
def ticking(monkeypatch):
    """A clock that moves on by 1.0 at every read."""
    ticks = itertools.count(1.0)
    monkeypatch.setattr(report, "_clock", lambda: next(ticks))


def _elapsed(rep: Report) -> dict[str, float]:
    return {c.name: c.elapsed for c in rep.checks}


def test_add_charges_since_the_previous_add_and_copies_keep_theirs(ticking):
    rep = Report(label="clock")                        # reads 1
    a = rep.add(Check(name="a", status=PASS))          # reads 2
    rep.add(Check(name="b", status=PASS, elapsed=9.0))  # reads 3
    rep.extend_prefixed("p:", [Check(name="c", status=PASS, elapsed=7.5)])  # reads 4
    rep.add(Check(name="d", status=PASS))              # reads 5
    assert a is rep.checks[0]
    assert _elapsed(rep) == {"a": 1.0, "b": 1.0, "p:c": 7.5, "d": 1.0}


def test_timings_stay_out_of_the_json(ticking):
    rep = Report(label="clock")
    rep.add(Check(name="a", status=PASS))
    assert rep.checks[0].elapsed == 1.0
    assert json.loads(rep.to_json())["checks"][0]["ms"] == 0
    assert rep.human_lines()[1] == "  [PASS] a (1000.0 ms)"


SL3, HEIS1 = catalog.load("sl3"), catalog.load("heis1")
RUNS = {
    "verify": lambda: verify_main_theorem(SL3.algebra, SL3.invariants, 2,
                                          transfer_samples=10),
    "multi": lambda: verify_multi_current(HEIS1.algebra, HEIS1.invariants, [1, 1],
                                          transfer_samples=10),
    "self-test": lambda: catalog.self_test(SL3),
    "chain": lambda: sl2_chain(levels=3),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_every_check_is_charged_whole_ticks(ticking, name):
    # nested reports (validate inside jacobi, the levels of a chain) read
    # the same clock, so a check may span more than one tick
    rep = RUNS[name]()
    assert rep.summary == PASS
    for c in rep.checks:
        assert c.elapsed > 0 and c.elapsed == int(c.elapsed), c.name


def test_the_check_after_copied_checks_is_not_charged_for_them(ticking):
    assert _elapsed(RUNS["multi"]())["family-count"] == 1.0
    assert _elapsed(RUNS["self-test"]())["invariants-symbolic"] == 1.0


text_st = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "\u2028", "\U0001f600", ""])
leaf_st = (text_st | st.integers(-10**20, 10**20) | st.booleans() | st.none()
           | st.fractions(max_denominator=50)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0, 1, True, False]))
key_st = (text_st | st.integers(-3, 3) | st.booleans() | st.none()
          | st.tuples(st.integers(0, 2), st.integers(0, 2)) | st.fractions(max_denominator=4))
witness_st = st.recursive(
    leaf_st,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(key_st, inner, max_size=4)),
    max_leaves=20)
check_st = st.builds(Check, name=text_st, status=st.sampled_from([PASS, "FAIL", "SKIPPED"]),
                     paper_ref=text_st, witness=witness_st,
                     seed=st.none() | st.integers(0, 2**40))


class TestReportBytes:
    @given(text_st, st.lists(check_st, max_size=4))
    def test_drawn_reports_match_the_oracle(self, label, checks):
        rep = Report(label=label)
        for c in checks:
            rep.add(c)
        assert rep.to_json() == report_json(rep)

    def test_colliding_and_odd_keys_match_the_oracle(self):
        rep = Report(label="keys")
        rep.add(Check(name="k", status=PASS, witness={
            1: "int", "1": "str", (0, 1): [(), {}, []], Fraction(1, 2): (True, 1, 1.0),
            None: {"b": [], "a": {}}, False: -0.0, "nan": [math.nan, -math.inf]}))
        text = rep.to_json()
        assert text == report_json(rep)
        assert json.loads(text)["checks"][0]["witness"]["1"] == "str"

    def test_chain_reports_match_the_oracle(self):
        for seed in range(50):
            rep = sl2_chain(levels=3, seed=seed)
            assert rep.to_json() == report_json(rep)

    def test_symbolic_sweep_reports_match_the_oracle(self, monkeypatch):
        # the benchmark's own job list for the symbolic-sweep workload
        monkeypatch.syspath_prepend(str(Path(takiffalg.__file__).resolve().parents[2]
                                        / "perfbench"))
        workloads = importlib.import_module("bench_workloads")
        sweep = workloads.WORKLOADS["symbolic-sweep"]
        entries = {name: catalog.load(name) for name in sweep.entries}
        jobs = sweep.jobs(0, entries)
        assert len(jobs) == 31
        for job in jobs:
            rep = job.call()
            assert rep.to_json() == report_json(rep), job.name
