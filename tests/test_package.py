"""Package-level checks: every exported name resolves, every layer the
benchmark traces still exists, the null-fiber chain, `verify` and the
symbolic sweep still enter the layers their workloads need, and the script
runs."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import takiffalg
from takiffalg import catalog, liealg, nilfiber, verify
from takiffalg.polyring import jet_substitute, parse_poly
from takiffalg.report import FAIL, PASS

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


def test_only_the_report_reads_the_clock():
    # a report times its checks in `Report.add`; no other module keeps a timer
    readers = sorted(p.name for p in (SRC / "takiffalg").glob("*.py")
                     if "perf_counter" in p.read_text())
    assert readers == ["report.py"]


def test_importing_the_package_loads_no_dataclasses():
    # `import takiffalg` is paid by every run; `dataclasses` with `inspect`
    # was about 60 % of it.  Only what the import adds counts, so a module a
    # site hook loads first cannot fail the test.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import takiffalg, takiffalg.cli\n"
            "print(*sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert {"takiffalg", "takiffalg.cli"} <= added
    assert added & {"dataclasses", "inspect"} == set()


def test_no_module_imports_dataclasses():
    importers = sorted(
        p.name for p in (SRC / "takiffalg").glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    assert importers == []


def test_only_takiff_names_the_grade_maps():
    # the grade-major layout is stated once, in `takiff`; the file format's
    # name-keyed maps are written and checked there, and nowhere else read
    readers = sorted(p.name for p in (SRC / "takiffalg").glob("*.py")
                     if "grade_of" in p.read_text() or "base_name_of" in p.read_text())
    assert readers == ["takiff.py"]


def test_the_expansion_structure_is_stated_once():
    # the family enforces its degrees, weights and derivative identity when
    # built; no module reports a defect of them, and the math layer writes
    # no report
    tree = ast.parse((SRC / "takiffalg" / "raistauvel.py").read_text())
    imported = {node.module or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "report" not in imported
    gone = ("identity_failure", "derivative_identity_defect", "_term_free_of_grade0")
    assert [p.name for p in (SRC / "takiffalg").glob("*.py")
            if any(name in p.read_text() for name in gone)] == []


def test_the_block_triangle_asks_no_omega_test():
    # `verify` certifies each step by one Omega point; the block triangle
    # then reads only rank K(xi_m), so raistauvel imports no omega_test
    tree = ast.parse((SRC / "takiffalg" / "raistauvel.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "omega_test" not in imported | attributes


def test_a_level_carries_only_its_jacobi_verdict():
    # invariance and the Kirillov ranks are read off the family chain at
    # each level, so a step takes no verdict or rank function from the one
    # before (no module names a rank function at all: see the next test)
    params = list(inspect.signature(verify._verify_step).parameters)
    assert params == ["L", "fs", "m", "trials", "seed", "transfer_samples", "base_jacobi"]


def test_the_index_takes_one_certified_set():
    # `index` works out its ceiling and its rank route from the certified
    # invariant set, so no caller passes a rank function or a bound that no
    # certificate backs, and `verify` builds no rank closure for it
    assert list(inspect.signature(liealg.index).parameters) == [
        "L", "trials", "seed", "certified"]
    source = "".join(p.read_text() for p in (SRC / "takiffalg").glob("*.py"))
    gone = ("generic_kirillov_rank", "RankFunction", "takiff_kirillov_rank",
            "_first_defect", "_omega_point")
    assert [name for name in gone if name in source] == []
    step = next(node for node in ast.parse((SRC / "takiffalg" / "verify.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "_verify_step")
    assert [node.name for node in ast.walk(step)
            if isinstance(node, ast.FunctionDef) and node is not step] == []


def test_verify_holds_a_family_at_every_step():
    # an uncertified step certifies the empty set, l = 0 in every bound: verify
    # tests no family or certified set against None and passes None for none,
    # and build_family expands the empty set like any other
    tree = ast.parse((SRC / "takiffalg" / "verify.py").read_text())
    sets = {"fs", "fam", "cert", "certified", "cur_fs", "base"}
    assert [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
            and node.left.id in sets
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)] == []
    takes_a_set = {"_invariance_checks", "_zero_top_rank_bound", "_regularity_transfer_check"}
    passed = [node.value for node in ast.walk(tree)
              if isinstance(node, ast.keyword) and node.arg == "certified"]
    passed += [arg for node in ast.walk(tree) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id in takes_a_set
               for arg in node.args]
    assert [ast.unparse(value) for value in passed
            if any(isinstance(n, ast.Constant) and n.value is None
                   for n in ast.walk(value))] == []
    assert "InvariantFamily | None" not in ast.unparse(tree)
    build = next(node for node in ast.parse((SRC / "takiffalg" / "raistauvel.py").read_text())
                 .body if isinstance(node, ast.FunctionDef) and node.name == "build_family")
    assert [ast.unparse(node) for node in ast.walk(build)
            if isinstance(node, (ast.If, ast.IfExp, ast.Raise))] == []


@pytest.mark.parametrize("name,invariant,degrees", [
    ("sl3", None, [2, 2]), ("affine2", None, [1, 1]), ("sl2", "h^2 + 3*e*f", [1, 2])])
def test_each_level_builds_one_truncation(monkeypatch, name, invariant, degrees):
    # the uncertified levels (affine2 has no invariants, h^2 + 3ef is none)
    # certify the empty set over the same L<m>, so no level truncates twice
    import takiffalg.takiff as module
    entry = catalog.load(name)
    L, fs = entry.algebra, entry.invariants
    if invariant is not None:
        fs = liealg.InvariantSet(algebra=L, polys=(parse_poly(invariant, L.basis),))
    real, depths = module.takiff, []

    def spy(base, m):
        depths.append(m)
        return real(base, m)

    for owner in map(importlib.import_module, MODULES):
        if getattr(owner, "takiff", None) is real:
            monkeypatch.setattr(owner, "takiff", spy)
    rep = verify.verify_multi_current(L, fs, degrees, transfer_samples=10)
    assert depths == degrees
    assert rep.summary == (PASS if invariant is None else FAIL)


def _identifiers(tree):
    """Every name a module defines, reads, imports or exports as a string."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_a_point_is_one_coordinate_list():
    # inside the package a dual point is its coordinate list; a mapping is
    # read once, by `polyring.coordinates`, so no other function asks
    # whether a point is a Mapping, and no flattening, top or zero-point
    # helper builds names for one
    branching = set()
    for path in (SRC / "takiffalg").glob("*.py"):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and "Mapping" in ast.unparse(node)
                    for node in ast.walk(fn)):
                branching.add((path.name, fn.name))
        gone = {"flatten_point", "TakiffDualPoint", "_top", "_zero_point", "_values_vector"}
        assert _identifiers(tree) & gone == set(), path.name
    assert branching == {("polyring.py", "coordinates")}
    assert list(inspect.signature(nilfiber._kernel_point).parameters) == ["basis", "r", "guard"]


def test_verify_asks_the_set_for_its_certificate():
    # the invariance defect and the Omega point come from the invariant set,
    # a family answering down its chain, so verify tells no family apart
    tree = ast.parse((SRC / "takiffalg" / "verify.py").read_text())
    assert [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and "InvariantFamily" in ast.unparse(node)] == []


def test_the_algebra_is_read_off_the_invariant_set():
    # a family depends on the basic invariants and the depth alone, so no
    # caller passes the algebra beside the set; the diagnostics take their
    # trials from `liealg.DEFAULT_TRIALS`, since no caller set another count
    from takiffalg import raistauvel
    params = {fn.__name__: list(inspect.signature(fn).parameters) for fn in (
        raistauvel.build_family, nilfiber.equidim_diagnostic, nilfiber._lemma_bounds,
        catalog.self_test, verify.wonderful_diagnostic)}
    assert params == {"build_family": ["fs", "m"],
                      "equidim_diagnostic": ["fs", "strata_samples"],
                      "_lemma_bounds": ["fam", "seed", "cone"],
                      "self_test": ["entry", "seed"],
                      "wonderful_diagnostic": ["L", "fs", "seed"]}


def test_takiff_names_the_module():
    # the package does not re-export the function `takiff`, so the module
    # and its `MAX_TAKIFF_SIZE` are reached by their dotted name
    import takiffalg.takiff as module
    assert module is sys.modules["takiffalg.takiff"] is takiffalg.takiff
    assert isinstance(module, types.ModuleType) and callable(module.takiff)
    assert "takiff" not in takiffalg.__all__


def test_each_cli_command_has_one_path():
    # `--m M` is `--multi M`: `build` goes through `multi_current` and
    # `verify` through `verify_multi_current`, and a failed base through the
    # report printer
    tree = ast.parse((SRC / "takiffalg" / "cli.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | \
        {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} | \
        {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {"multi_current", "verify_multi_current", "_emit_report"} <= names
    assert names & {"takiff", "verify_main_theorem", "_require_valid_base"} == set()


def test_the_expansion_enumerates_grade_shifts():
    # the benchmark traces `polyring.jet_substitute` by name; it takes one
    # distinct target index per grade shift, so nothing merges and no power
    # of a general jet is cached
    assert list(inspect.signature(jet_substitute).parameters) == ["p", "index", "target"]
    assert "powcache" not in (SRC / "takiffalg" / "polyring.py").read_text()


def _bench_trace_spans():
    """SPANS of perfbench/bench_trace.py (stdlib imports only), read without
    writing bytecode next to it."""
    path = ROOT / "perfbench" / "bench_trace.py"
    bench_trace = types.ModuleType("_bench_trace_spans")
    sys.modules[bench_trace.__name__] = bench_trace   # dataclasses look it up here
    try:
        exec(compile(path.read_text(), str(path), "exec"), bench_trace.__dict__)
    finally:
        del sys.modules[bench_trace.__name__]
    return bench_trace.SPANS


def _must_run(workload):
    """The spans perfbench/test_perfbench.py requires `workload` to enter."""
    path = ROOT / "perfbench" / "test_perfbench.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "MUST_RUN" for t in node.targets):
            return ast.literal_eval(node.value)[workload]
    raise AssertionError("perfbench/test_perfbench.py defines no MUST_RUN")


def _count_calls(monkeypatch, layers):
    """Call counts of each (module, qualname), filled in as the layers run.

    A function is wrapped in every module namespace that bound it, a method
    on its class.
    """
    calls = {}
    for owner_name, qualname in layers:
        *path, name = qualname.split(".")
        owner = importlib.import_module(owner_name)
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        key = f"{owner_name}.{qualname}"
        calls[key] = 0

        def counting(*args, _key=key, _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        owners = [owner] if path else [m for m in map(importlib.import_module, MODULES)
                                       if getattr(m, name, None) is original]
        for target in owners:
            monkeypatch.setattr(target, name, counting)
    return calls


def _silent_when_warm(monkeypatch, workload, job):
    """The spans of `workload`'s MUST_RUN entry that a second call of `job` leaves silent.

    The benchmark traces its passes after an untraced warm-up pass, so the
    calls are counted on a second call after one uncounted call: a cache
    that lives for the process and skips a layer on later calls shows here.
    """
    job()
    spans = {span.metric: span for span in _bench_trace_spans()}
    calls = _count_calls(monkeypatch, [(spans[metric].module, spans[metric].qualname)
                                       for metric in _must_run(workload)])
    job()
    return [key for key, n in calls.items() if not n]


def test_benchmark_traced_spans_resolve():
    # perfbench/bench_trace.py names every function the benchmark wraps; a
    # deletion must not silently drop one of those layers.
    spans = _bench_trace_spans()
    assert spans
    for span in spans:
        assert span.module.startswith("takiffalg."), span
        owner = importlib.import_module(span.module)
        for part in span.qualname.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{span.module}.{span.qualname} is not a callable"


def test_null_fiber_chain_runs_the_benchmarked_layers(monkeypatch):
    # perfbench/test_perfbench.py requires the nullfiber-seeds workload to
    # enter every span of its MUST_RUN entry; a certificate or dedupe inside
    # sl2_chain must not leave one of them silent.  The workload serializes
    # each report.
    assert _silent_when_warm(monkeypatch, "nullfiber-seeds",
                             lambda: nilfiber.sl2_chain(levels=3, seed=0).to_json()) == []


def test_verify_runs_the_layers_sampled_large_requires(monkeypatch):
    # perfbench/test_perfbench.py requires the sampled-large workload to enter
    # every span of its MUST_RUN entry; a shortcut inside verify must not
    # leave one of them silent.  The workload serializes each report.
    sl3 = catalog.load("sl3")
    assert _silent_when_warm(monkeypatch, "sampled-large", lambda: verify.verify_main_theorem(
        sl3.algebra, sl3.invariants, 2, transfer_samples=4).to_json()) == []


def test_symbolic_sweep_runs_the_layers_it_requires(monkeypatch):
    # perfbench/test_perfbench.py requires the symbolic-sweep workload to
    # enter every span of its MUST_RUN entry; its jobs are catalog self-tests,
    # verify runs and wonderful diagnostics.  `verify` brackets only the base
    # invariants, so a certificate there must not leave the symbolic bracket
    # or another layer silent.  The workload serializes each report.
    sl2 = catalog.load("sl2")

    def sweep():
        catalog.self_test(sl2).to_json()
        verify.verify_main_theorem(sl2.algebra, sl2.invariants, 2,
                                   transfer_samples=4).to_json()
        verify.wonderful_diagnostic(sl2.algebra, sl2.invariants).to_json()

    assert _silent_when_warm(monkeypatch, "symbolic-sweep", sweep) == []


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
