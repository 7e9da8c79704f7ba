"""Per-layer spans recorded from outside the program.

The tracer replaces each traced function by a wrapper in every `takiffalg`
module namespace that bound it (``from .liealg import kirillov_matrix`` makes
a second binding in `verify`), and on the class for methods.  Spans nest on a
stack, so a span's self time is its duration minus the time of the traced
spans it called.  Spans are folded into per-name totals in memory as they
close and read out when the traced passes end; nothing is written to disk.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _rank_size(totals: dict, args: tuple, kwargs: dict) -> None:
    rows = args[0] if args else kwargs["rows"]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    totals["cells"] += nrows * ncols
    totals["max_dim"] = max(totals["max_dim"], nrows, ncols)


def _terms_size(totals: dict, args: tuple, kwargs: dict) -> None:
    totals["terms"] += len(args[0].terms)


@dataclass(frozen=True)
class Span:
    """One traced function: its metric prefix, where it lives, extra counts."""

    metric: str
    module: str
    qualname: str
    extras: tuple[str, ...] = ()
    size: Callable[[dict, tuple, dict], None] | None = None
    result_bytes: bool = False   # add len(result) to the "bytes" count


# The layer boundaries the benchmark traces, with the end-to-end metric each
# should move listed in perfbench/README.md.  `nilfiber` binds
# build_family/family_rank_at/differential_matrix/omega_test by name, `verify`
# binds kirillov_matrix/takiff, `raistauvel` binds jet_substitute/takiff; the
# identity-based install below reaches all of those bindings.
SPANS = (
    Span("polyring.gradient_at", "takiffalg.polyring", "Polynomial.gradient_at",
         ("terms",), size=_terms_size),
    Span("polyring.evaluate", "takiffalg.polyring", "Polynomial.evaluate"),
    Span("polyring.jet_substitute", "takiffalg.polyring", "jet_substitute"),
    Span("linalg.rank", "takiffalg.linalg", "rank", ("cells", "max_dim"),
         size=_rank_size),
    Span("linalg.rref", "takiffalg.linalg", "rref"),
    Span("linalg.nullspace", "takiffalg.linalg", "nullspace"),
    Span("liealg.kirillov_matrix", "takiffalg.liealg", "kirillov_matrix"),
    Span("liealg.bracket_defect_against", "takiffalg.liealg", "bracket_defect_against"),
    Span("liealg.validate", "takiffalg.liealg", "validate"),
    Span("liealg.differential_matrix", "takiffalg.liealg", "differential_matrix"),
    Span("liealg.omega_test", "takiffalg.liealg", "omega_test"),
    Span("takiff.takiff", "takiffalg.takiff", "takiff"),
    Span("raistauvel.build_family", "takiffalg.raistauvel", "build_family"),
    Span("raistauvel.family_rank_at", "takiffalg.raistauvel", "family_rank_at"),
    Span("verify.verify_main_theorem", "takiffalg.verify", "verify_main_theorem"),
    Span("verify.wonderful_diagnostic", "takiffalg.verify", "wonderful_diagnostic"),
    Span("nilfiber.sl2_chain", "takiffalg.nilfiber", "sl2_chain"),
    Span("catalog.self_test", "takiffalg.catalog", "self_test"),
    Span("report.Report.to_json", "takiffalg.report", "Report.to_json",
         ("bytes",), result_bytes=True),
    Span("sampling.random_coords", "takiffalg.sampling", "random_coords"),
)

# Metrics that are exact counts: they must repeat across runs with one seed.
COUNT_METRICS = tuple(
    [f"{s.metric}.calls" for s in SPANS]
    + [f"{s.metric}.{x}" for s in SPANS for x in s.extras])
TIME_METRICS = tuple(f"{s.metric}.self_s" for s in SPANS)
UNITS = {**{m: ("bytes" if m.endswith(".bytes") else "count") for m in COUNT_METRICS},
         **{m: "s" for m in TIME_METRICS}, "trace.overhead_s": "s"}
PER_LAYER_METRICS = COUNT_METRICS + TIME_METRICS + ("trace.overhead_s",)


@dataclass
class Tracer:
    """Installs span wrappers; `snapshot` returns the totals since install."""

    totals: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def _fresh(self, span: Span) -> dict:
        return {"calls": 0, "self_s": 0.0, **{x: 0 for x in span.extras}}

    def _wrap(self, span: Span, fn):
        totals = self.totals[span.metric] = self._fresh(span)
        stack = self._stack
        clock = time.perf_counter
        size = span.size
        result_bytes = span.result_bytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if size is not None:
                size(totals, args, kwargs)
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                totals["calls"] += 1
                totals["self_s"] += dt - child[0]
            if result_bytes:
                totals["bytes"] += len(result)
            return result

        return traced

    def install(self) -> None:
        for span in SPANS:
            owner = importlib.import_module(span.module)
            *outer, attr = span.qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                # Renamed or removed by a later change: its counts read 0
                # and the benchmark test names it.
                self.totals[span.metric] = self._fresh(span)
                continue
            wrapper = self._wrap(span, original)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "takiffalg" or name.startswith("takiffalg.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Flat per-layer values recorded since the last install."""
        return {f"{span.metric}.{key}": value
                for span in SPANS
                for key, value in self.totals[span.metric].items()}
