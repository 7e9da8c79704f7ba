"""Checks on the benchmark itself; each runs perfbench/run.py in a subprocess.

    python3 -m pytest -p no:cacheprovider perfbench/test_perfbench.py

Each workload is run twice traced and twice untraced (two seeds), so the
whole file takes a few minutes, most of it in `sampled-large`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sampled-large", "symbolic-sweep", "nullfiber-seeds")

# Spans that must record calls on a workload: the layers its row in
# README.md says it measures.
MUST_RUN = {
    "sampled-large": (
        "polyring.gradient_at", "polyring.jet_substitute", "linalg.rank",
        "liealg.kirillov_matrix", "liealg.validate", "liealg.omega_test",
        "takiff.takiff", "raistauvel.build_family", "raistauvel.family_rank_at",
        "verify.verify_main_theorem", "report.Report.to_json",
        "sampling.random_coords"),
    "symbolic-sweep": (
        "polyring.gradient_at", "polyring.jet_substitute", "linalg.rank",
        "liealg.kirillov_matrix", "liealg.bracket_defect_against",
        "liealg.validate", "takiff.takiff", "raistauvel.build_family",
        "verify.verify_main_theorem", "verify.wonderful_diagnostic",
        "catalog.self_test", "report.Report.to_json", "sampling.random_coords"),
    "nullfiber-seeds": (
        "polyring.gradient_at", "polyring.evaluate", "polyring.jet_substitute",
        "linalg.rank", "linalg.rref", "linalg.nullspace",
        "liealg.differential_matrix", "liealg.omega_test", "takiff.takiff",
        "raistauvel.build_family", "raistauvel.family_rank_at",
        "nilfiber.sl2_chain", "report.Report.to_json", "sampling.random_coords"),
}


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, repeat: int = 0) -> tuple[dict, dict]:
    """(final JSON result, detail line) of one run; `repeat` makes a second run."""
    proc = _run(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", (0, 1))
def test_pinned_facts_hold(workload, seed):
    result, _ = bench(workload, seed, 0)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["ok_ratio"]["value"] == 1.0
    want = 7 / 9 if workload == "sampled-large" else 1.0
    assert metrics["certified_ratio"]["value"] >= want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_listed_spans_record_calls(workload):
    result, _ = bench(workload, 0, 1)
    assert result["correct"]
    silent = [s for s in MUST_RUN[workload]
              if result["metrics"][f"{s}.calls"]["value"] == 0]
    assert not silent


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_reports_match_untraced(workload):
    _, first = bench(workload, 0, 1)
    _, second = bench(workload, 0, 1, repeat=1)
    _, untraced = bench(workload, 0, 0)
    assert first["counts"] == second["counts"]
    assert first["digests"] == untraced["digests"]
    assert first["digests"] == second["digests"]


def test_seed_reaches_the_program():
    _, a = bench("symbolic-sweep", 0, 0)
    _, b = bench("symbolic-sweep", 1, 0)
    assert a["digests"].keys() == b["digests"].keys()
    assert a["digests"] != b["digests"]


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "symbolic-sweep", 0, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_drops_probes_inside_a_job_and_scales_by_their_time():
    from host_speed import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    speed.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    speed.times = [2 * REFERENCE_S] * 5   # a host at half the reference speed
    # The job runs from 1.5 to 3.5: the probes at 2.0 and 3.0 ran inside it.
    assert speed.scaled(1.5, 3.5) == pytest.approx((2.0 - 4 * REFERENCE_S) / 2)
