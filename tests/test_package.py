"""Package-level checks: every exported name resolves, every layer the
benchmark traces still exists and the null-fiber chain still enters the
layers its workload needs, and the script runs."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import takiffalg
from takiffalg import catalog
from takiffalg.nilfiber import sl2_chain
from takiffalg.polyring import parse_poly

SRC = Path(takiffalg.__file__).resolve().parents[1]
ROOT = SRC.parent
MODULES = ["takiffalg"] + [f"takiffalg.{m.name}"
                           for m in pkgutil.iter_modules(takiffalg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_benchmark_traced_spans_resolve():
    # perfbench/bench_trace.py (stdlib imports only) names every function the
    # benchmark wraps; a deletion must not silently drop one of those layers.
    # The file is only read: no bytecode is written next to it.
    path = ROOT / "perfbench" / "bench_trace.py"
    bench_trace = types.ModuleType("_bench_trace_spans")
    sys.modules[bench_trace.__name__] = bench_trace   # dataclasses look it up here
    try:
        exec(compile(path.read_text(), str(path), "exec"), bench_trace.__dict__)
    finally:
        del sys.modules[bench_trace.__name__]
    assert bench_trace.SPANS
    for span in bench_trace.SPANS:
        assert span.module.startswith("takiffalg."), span
        owner = importlib.import_module(span.module)
        for part in span.qualname.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{span.module}.{span.qualname} is not a callable"


def test_null_fiber_chain_runs_the_benchmarked_layers(monkeypatch):
    # The nullfiber-seeds workload of perfbench/ requires these spans to be
    # entered; a dedupe inside sl2_chain must not leave one of them silent.
    # Each function is wrapped in every module namespace that bound it.
    layers = [("takiffalg.linalg", "rref"), ("takiffalg.linalg", "nullspace"),
              ("takiffalg.raistauvel", "build_family"),
              ("takiffalg.raistauvel", "family_rank_at"),
              ("takiffalg.liealg", "differential_matrix"),
              ("takiffalg.liealg", "omega_test")]
    calls = {}
    for owner, name in layers:
        original = getattr(importlib.import_module(owner), name)
        key = f"{owner}.{name}"
        calls[key] = 0

        def counting(*args, _key=key, _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        for module in map(importlib.import_module, MODULES):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    sl2_chain(levels=3, seed=0)
    assert [key for key, n in calls.items() if not n] == []


def test_derive_sl3_casimirs_reproduces_the_catalog():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "derive_sl3_casimirs.py")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    basis = catalog.load("sl3").algebra.basis
    for header, frozen in (("# degree-2 Casimir", catalog._SL3_CASIMIR_2),
                           ("# degree-3 Casimir", catalog._SL3_CASIMIR_3)):
        printed = next(lines[k + 1] for k, line in enumerate(lines)
                       if line.startswith(header))
        assert parse_poly(printed, basis) == parse_poly(frozen, basis)
