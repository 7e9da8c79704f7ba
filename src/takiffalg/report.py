"""Structured check reports with deterministic JSON serialization.

Serialized reports are byte-identical for identical inputs and seeds.  Wall
clock timings are kept on the in-memory objects for the human summary but are
normalized to 0 in the JSON form, since anything else would break run-to-run
reproducibility of the report files.

`Report.to_json` writes the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` for the report's document (label, summary, and each
check's fields with its witness made JSON-safe by `jsonable`), but directly:
one recursive writer walks the values, quoting strings with
`json.encoder.encode_basestring_ascii`, and hands any type it does not know
to ``json.dumps(jsonable(v))``.  The indented `json.dumps` cannot use the C
encoder, and the writer takes less than half its time.  `tests/oracles.py`
keeps the `json.dumps` route as the byte oracle.

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
from json.encoder import encode_basestring_ascii as _quote
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


def _write(value: Any, pad: str, out: list[str]) -> None:
    """Append the JSON of ``value`` as ``json.dumps(jsonable(value), indent=2, sort_keys=True)``.

    ``pad`` is a newline followed by the indentation of the line that holds
    ``value``.  Keys are ``str()``-ed into one dict first, as `jsonable`
    does, so colliding keys keep the last value.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif type(value) is int:
        out.append(repr(value))
    elif isinstance(value, Fraction):
        out.append(_quote(str(value)))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for k, v in sorted({str(k): v for k, v in value.items()}.items()):
            out.append(sep)
            out.append(_quote(k))
            out.append(": ")
            _write(v, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    else:
        out.append(json.dumps(jsonable(value)))


@dataclass
class Check:
    name: str
    status: str
    paper_ref: str = "plumbing"
    witness: Any = None
    seed: int | None = None
    elapsed: float = 0.0


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

    def to_json(self) -> str:
        """The report as indented JSON with sorted keys; each check's ``ms`` is 0."""
        checks = [{"ms": 0, "name": c.name, "paper_ref": c.paper_ref, "seed": c.seed,
                   "status": c.status, "witness": c.witness} for c in self.checks]
        out: list[str] = []
        _write({"checks": checks, "label": self.label, "summary": self.summary}, "\n", out)
        out.append("\n")
        return "".join(out)

    def human_lines(self) -> list[str]:
        lines = [f"report: {self.label}"]
        for c in self.checks:
            extra = ""
            if c.status == FAIL and c.witness is not None:
                extra = f"  witness={json.dumps(jsonable(c.witness), sort_keys=True)}"
            lines.append(f"  [{c.status}] {c.name} ({c.elapsed * 1000:.1f} ms){extra}")
        lines.append(f"summary: {self.summary}")
        return lines
