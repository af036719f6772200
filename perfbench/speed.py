"""Host speed calibration for the timing metrics.

On a shared host the effective CPU speed drifts by up to 1.5x, in states that
last from one second to half a minute, with process CPU time tracking wall
time, so neither longer runs nor CPU clocks remove it. The benchmark runs a
fixed calibration kernel during every timed section and rescales the
section's times by REFERENCE_NS / (kernel time), which states them at the
reference speed: the speed at which the kernel takes REFERENCE_NS.
The kernel mixes the kinds of work the library does per call: float and
complex arithmetic, a validated frozen dataclass, small numpy calls and a
4x4 solve.

Changing the kernel or REFERENCE_NS changes every timing metric: that is a
benchmark change, never part of a change that claims a gain.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_NS = 1_000_000
KERNEL_RUNS = 3


@dataclass(frozen=True, slots=True)
class _Quadruple:
    """A validated value type built the way the library builds its own."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        vals = (float(self.a), float(self.b), float(self.c), float(self.d))
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "a", vals[0])
        object.__setattr__(self, "b", vals[1])
        object.__setattr__(self, "c", vals[2])
        object.__setattr__(self, "d", vals[3])


def _kernel():
    acc = 0.0
    m = np.eye(4) + 0.1
    for i in range(60):
        x = (0.5 * i, 1.0 - i, 0.25 * i)
        r = math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
        h = 0.5 * math.atan2(x[1], x[0])
        z1 = complex(math.cos(h), -math.sin(h)) * math.sqrt(r + abs(x[2]))
        z2 = z1.conjugate() * (1.0 + 0.5j)
        q = _Quadruple(z1.real, z1.imag, z2.real, z2.imag)
        v = np.array([q.a, q.b, q.c, q.d])
        acc += float(np.max(np.abs(m @ v - v))) / max(1.0, float(np.max(np.abs(v))))
        if i % 6 == 0:
            acc += float(np.linalg.solve(m, v)[0])
    return acc


def kernel_ns():
    """Fastest of a few kernel runs: one run can catch an interrupt."""
    best = math.inf
    for _ in range(KERNEL_RUNS):
        start = time.perf_counter_ns()
        _kernel()
        best = min(best, time.perf_counter_ns() - start)
    return best


class Sampled:
    """Calibration probes taken during a timed section.

    A timer signal runs the kernel every SAMPLE_INTERVAL seconds of the
    section; the section's time at the reference speed is its time without
    the probes, times REFERENCE_NS over the mean probe time. Probes taken
    during a section track the host's speed through it, which probes at its
    two ends do not once it lasts longer than a second. They run on the main
    thread between bytecodes, so the load stays single-threaded.
    """

    SAMPLE_INTERVAL = 0.05

    def __init__(self):
        self.probes = []
        self.spent_ns = 0
        self._previous = None
        self._start = 0

    def _probe(self, signum, frame):
        start = time.perf_counter_ns()
        _kernel()
        elapsed = time.perf_counter_ns() - start
        self.probes.append(elapsed)
        self.spent_ns += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        # A random first delay keeps the probes from landing on the same ops
        # pass after pass when a pass lasts about a whole number of intervals.
        signal.setitimer(signal.ITIMER_REAL, random.uniform(0.001, self.SAMPLE_INTERVAL),
                         self.SAMPLE_INTERVAL)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.elapsed_ns = time.perf_counter_ns() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self):
        """REFERENCE_NS over the mean probe time (one probe now if none ran)."""
        if not self.probes:
            self.probes.append(kernel_ns())
        return REFERENCE_NS / statistics.fmean(self.probes)

    def seconds(self):
        """(time of the section at the reference speed, raw time without probes)."""
        raw = (self.elapsed_ns - self.spent_ns) / 1e9
        return raw * self.factor(), raw
