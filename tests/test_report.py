"""Check timings: a report's one clock charges every second to some check."""

from __future__ import annotations

import itertools

import pytest

from takiffalg import catalog, report
from takiffalg.nilfiber import sl2_chain
from takiffalg.report import PASS, Check, Report
from takiffalg.verify import verify_main_theorem, verify_multi_current


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
    assert rep.to_dict()["checks"][0]["ms"] == 0
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
