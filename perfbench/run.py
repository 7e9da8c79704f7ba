#!/usr/bin/env python3
"""Benchmark for takiffalg: run one workload, check every job, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is one process, no threads, one client in a closed loop: each job starts
when the previous one returns.  --trace 0 cycles through the workload's job
list until --seconds have gone by, finishing at least one whole pass, and
prints the end-to-end metrics.  Their times are scaled to a reference host
speed measured during the run (host_speed.py).  Set-up is timed separately,
in fresh interpreters, as the median of cold starts taken before and after
the jobs.

--trace 1 runs a warm-up pass, then untraced and traced passes in turn until
--seconds have gone by (at least one of each), and prints the per-layer
metrics and the tracing overhead.

Every job's report is checked against the facts pinned in bench_workloads.py,
and its JSON bytes must repeat in every run of the job, traced or not.  The last line of standard output is one JSON object; lines before it
are for people.  Exits 2 without a result if the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from bench_trace import COUNT_METRICS, PER_LAYER_METRICS, TIME_METRICS, UNITS, Tracer
from host_speed import HostSpeed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REPEATS = 8   # cold starts before the jobs, and as many after
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "certified_ratio": "ratio",
    "ok_ratio": "ratio",
}

clock = time.perf_counter


class SetupError(Exception):
    pass


@dataclass
class Run:
    """Runs jobs, keeps each job's times and checks every job's report."""

    jobs: list
    speed: HostSpeed | None = None   # scale job times to the reference speed
    times: list = field(init=False)
    raw_seconds: float = 0.0
    digests: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    passed: int = 0
    sampled: int = 0

    def __post_init__(self):
        self.times = [[] for _ in self.jobs]

    def run_job(self, j: int) -> None:
        job = self.jobs[j]
        t0 = clock()
        try:
            report = job.call()
            text = report.to_json()
        except Exception:
            report, text = None, traceback.format_exc()
        t1 = clock()
        self.raw_seconds += t1 - t0
        self.times[j].append(self.speed.scaled(t0, t1) if self.speed else t1 - t0)
        self._check(job, report, text)

    def run_pass(self) -> float:
        t0 = clock()
        for j in range(len(self.jobs)):
            self.run_job(j)
        return clock() - t0

    def _check(self, job, report, text: str) -> None:
        from bench_workloads import mismatches
        from takiffalg.report import PASS, SAMPLED_PASS

        self.attempted += 1
        if report is None:
            problems = [f"raised:\n{text}"]
        else:
            problems = mismatches(report, job.expect)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault(job.name, digest) != digest:
                problems.append("report JSON differs from this job's first run")
            self.passed += sum(c.status == PASS for c in report.checks)
            self.sampled += sum(c.status == SAMPLED_PASS for c in report.checks)
        if problems:
            self.failed += 1
            print(f"FAILED {job.name}: " + "; ".join(problems), file=sys.stderr)


def _import_program():
    if not (SRC / "takiffalg" / "__init__.py").is_file():
        raise SetupError(f"no takiffalg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import takiffalg
    if SRC.resolve() not in Path(takiffalg.__file__).resolve().parents:
        raise SetupError(f"takiffalg imported from {takiffalg.__file__}, not {SRC}")


def _setup_samples(entries) -> list:
    cmd = [sys.executable, "-I", str(BENCH / "setup_probe.py"), str(SRC), *entries]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _measure(run: Run, seconds: float) -> None:
    """Cycle through the jobs until the deadline, finishing at least one pass."""
    deadline = clock() + seconds
    n = len(run.jobs)
    k = 0
    with HostSpeed() as run.speed:
        while k < n or clock() < deadline:
            run.run_job(k % n)
            k += 1


def _end_to_end(run: Run, setup: list) -> dict:
    # Per-job medians of times at the reference speed: the first, slower
    # pass in a process then spoils one sample of a job, not the figure.
    # A pass is the sum of its jobs.
    per_job = [statistics.median(t) for t in run.times]
    return {
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(
            t for t, job in zip(per_job, run.jobs) if job.verdict),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "certified_ratio": run.passed / max(run.passed + run.sampled, 1),
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
    }


def _traced(run: Run, seconds: float) -> tuple[dict, bool]:
    """Untraced and traced passes in turn until the deadline, after a warm-up.

    The first pass in a process runs slower than later ones, so it is not
    used as the untraced reference for the tracing overhead.
    """
    deadline = clock() + seconds
    run.run_pass()
    tracer = Tracer()
    plain, walls, layers = [], [], []
    while not walls or clock() < deadline:
        plain.append(run.run_pass())
        tracer.install()
        try:
            walls.append(run.run_pass())
        finally:
            tracer.uninstall()
        layers.append(tracer.snapshot())

    metrics = {k: layers[0][k] for k in COUNT_METRICS}
    steady = True
    for later in layers[1:]:
        moved = sorted(k for k in COUNT_METRICS if later[k] != metrics[k])
        if moved:
            steady = False
            print(f"FAILED counts moved between traced passes: {moved}",
                  file=sys.stderr)
    for k in TIME_METRICS:
        metrics[k] = statistics.median(pl[k] for pl in layers)
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain)
    return metrics, steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        _import_program()
    except (SetupError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS
    from takiffalg import catalog

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    try:
        setup = [] if args.trace else _setup_samples(workload.entries)
    except (SetupError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    entries = {name: catalog.load(name) for name in workload.entries}
    run = Run(workload.jobs(args.seed, entries))

    if args.trace:
        metrics, correct = _traced(run, args.seconds)
        names, units = PER_LAYER_METRICS, UNITS
        counts = {k: metrics[k] for k in COUNT_METRICS}
    else:
        _measure(run, args.seconds)
        setup += _setup_samples(workload.entries)
        metrics, correct = _end_to_end(run, setup), True
        names, units = tuple(END_TO_END_UNITS), END_TO_END_UNITS
        counts = None
    correct = correct and run.failed == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(run.jobs)}  runs per job {min(map(len, run.times))}"
          f"-{max(map(len, run.times))}")
    if run.speed:
        probes = run.speed.times
        print(f"  host probe median {statistics.median(probes) * 1e3:.3f} ms over "
              f"{len(probes)} probes; jobs took {run.raw_seconds:.3f} s unscaled")
    for name in names:
        print(f"  {name:<40} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'failed_ratio':<40} {run.failed / run.attempted:>14.6g} ratio "
          f"({run.failed} of {run.attempted} jobs)")
    print("detail " + json.dumps({"digests": run.digests, "counts": counts},
                                 sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
