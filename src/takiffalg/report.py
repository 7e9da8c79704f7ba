"""Structured check reports with deterministic JSON serialization.

Serialized reports are byte-identical for identical inputs and seeds.  Wall
clock timings are kept on the in-memory objects for the human summary but are
normalized to 0 in the JSON form, since anything else would break run-to-run
reproducibility of the report files.

A report is the one place that times a check.  Its clock starts when the
report is created, and `Report.add` sets a check's ``elapsed`` to the time
since the previous `add` (or since the report was created), so every second
of a report's life is charged to some check.  `Report.extend_prefixed`
copies checks with their own timings and restarts the clock, so the next
check is not charged for the copied ones.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

__all__ = ["Check", "Report", "PASS", "FAIL", "SAMPLED_PASS", "SKIPPED", "jsonable"]

PASS = "PASS"
FAIL = "FAIL"
SAMPLED_PASS = "SAMPLED-PASS"
SKIPPED = "SKIPPED"

_STATUS_ORDER = {FAIL: 2, SAMPLED_PASS: 1, PASS: 0, SKIPPED: 0}

_clock = time.perf_counter


def jsonable(value: Any) -> Any:
    """Recursively convert witness payloads into JSON-safe data (rationals as strings)."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class Check:
    name: str
    status: str
    paper_ref: str = "plumbing"
    witness: Any = None
    seed: int | None = None
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "witness": jsonable(self.witness),
            "seed": self.seed,
            # Normalized so that reports are byte-identical across runs.
            "ms": 0,
        }


@dataclass
class Report:
    label: str
    checks: list[Check] = field(default_factory=list)
    # read through the module global at call time, so tests can patch _clock
    _last: float = field(default_factory=lambda: _clock(), init=False,
                         repr=False, compare=False)

    def add(self, check: Check) -> Check:
        """Append ``check``, timed from the previous add or the report's creation."""
        now = _clock()
        check.elapsed, self._last = now - self._last, now
        self.checks.append(check)
        return check

    def extend_prefixed(self, prefix: str, checks: list[Check]) -> None:
        """Append renamed copies that keep their own timings, then restart the clock."""
        for c in checks:
            self.checks.append(Check(name=prefix + c.name, status=c.status,
                                     paper_ref=c.paper_ref, witness=c.witness,
                                     seed=c.seed, elapsed=c.elapsed))
        self._last = _clock()

    @property
    def summary(self) -> str:
        """FAIL dominates; SAMPLED-PASS never upgrades to PASS."""
        worst = 0
        for c in self.checks:
            worst = max(worst, _STATUS_ORDER.get(c.status, 2))
        return {2: FAIL, 1: SAMPLED_PASS, 0: PASS}[worst]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def human_lines(self) -> list[str]:
        lines = [f"report: {self.label}"]
        for c in self.checks:
            extra = ""
            if c.status == FAIL and c.witness is not None:
                extra = f"  witness={json.dumps(jsonable(c.witness), sort_keys=True)}"
            lines.append(f"  [{c.status}] {c.name} ({c.elapsed * 1000:.1f} ms){extra}")
        lines.append(f"summary: {self.summary}")
        return lines
