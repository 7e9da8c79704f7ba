"""Host-speed probe: scale measured times to a fixed reference host speed.

On a shared host the same job runs up to 1.6 times slower in a busy spell,
and busy spells last from seconds to minutes, so raw times of one job move
by tens of percent between runs of the same code.  A fixed mix of the kinds
of work the program does (`spin`) slows by about the same factor: fitted
over the jobs of one process, a job's time went as the probe's time to a
power of 0.8-1.0 on every workload, where a plain bytecode loop gave 0.8-1.4.

`HostSpeed` times the probe every 50 ms of a run from a SIGALRM handler.  A
job's time, less the probes that ran inside it, divided by the probe's mean
time around the job and multiplied by `REFERENCE_S`, is the job's time at
the reference speed.  That figure repeats between runs where the raw one
does not.  The probe is the benchmark's own code, so a change to the program
moves the scaled time by the same share as the raw time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

clock = time.perf_counter

PERIOD_S = 0.05
# The probe's time in a quiet spell on the 2-vCPU x86-64 VM where the bounds
# were set, so scaled times read close to that host's quiet-spell seconds.
REFERENCE_S = 0.0007
WINDOW = 8  # a job's speed is the mean of at least this many probes


# Operands of the probe's arithmetic, fixed so every probe does the same work.
_FRACTIONS = [Fraction(104729 * k + 1, 7919 * k + 3) ** 3 for k in range(25)]
_BIG = [3 ** 1900 + k for k in range(8)]   # 3012-bit integers


def spin() -> int:
    """Bytecode, Fraction sums of products, big-integer products and dict
    updates with tuple keys, in about equal shares of time."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    acc = Fraction(0)
    for a, b in zip(_FRACTIONS, _FRACTIONS[1:]):
        acc += a * b
    for a in _BIG:
        for b in _BIG[:4]:
            s += a * b
    d = {}
    for i in range(600):
        k = (i % 37, i % 11, i % 5)
        d[k] = d.get(k, 0) + i
    return s + len(d) + acc.denominator


def probe() -> float:
    t0 = clock()
    spin()
    return clock() - t0


def scale(elapsed: float, probes) -> float:
    """`elapsed` seconds at the reference speed, given probe times around it."""
    return elapsed * REFERENCE_S * len(probes) / sum(probes)


class HostSpeed:
    """Probe the host every PERIOD_S while active; scale job times with it."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        t0 = clock()
        spin()
        self.starts.append(t0)
        self.times.append(clock() - t0)

    def __enter__(self) -> "HostSpeed":
        spin()   # the first call in a process runs slow
        for _ in range(WINDOW):
            self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, t0: float, t1: float) -> float:
        """Time from t0 to t1 less the probes inside it, at the reference speed."""
        end = len(self.starts)
        while end and self.starts[end - 1] >= t1:
            end -= 1
        first = end
        while first and self.starts[first - 1] >= t0:
            first -= 1
        inside = self.times[first:end]
        window = self.times[max(0, min(first, end - WINDOW)):end]
        return scale(t1 - t0 - sum(inside), window)
