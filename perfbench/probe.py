"""Core-speed probe: how fast the measuring core runs while a child runs.

The benchmark's host shares its cores with other machines.  Each vCPU
switches, every few seconds and independently of the other, between a
fast state and one up to 1.7 times slower, so the raw time of a 15 s child
varies by a third from run to run.  A probe on the *other* vCPU does not
see this (their states are uncorrelated), and one run just before or after
the child sees a different stretch.

So the benchmark pins itself and every child to one vCPU (`pin`), and a
`Probe` thread on the same vCPU wakes every PERIOD_S, times one fixed
piece of pure-Python work (Fraction and dict arithmetic, the kind nlocus
spends its time on) in CPU time, and sleeps again.  The scheduler
interleaves probe and child at a granularity of milliseconds, far below
the seconds a speed state lasts, so the probe's mean iteration time is
the core's slowness averaged over the same stretch the child ran in.
`Probe.scale` turns a child's time into seconds at the reference speed
REF_NS; a child that does the same work reads the same on a fast or a
slow stretch.  The probe takes about 4% of the core.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

PERIOD_S = 0.004
# Mean probe iteration, in ns, on an uncontended vCPU of the 2-vCPU
# Xeon (Sapphire Rapids) KVM guest with Python 3.11 where the benchmark
# was defined.  Scaled times read as seconds on such a core.
REF_NS = 150_000


def work():
    """One probe iteration: about 0.15 ms of Fraction and dict arithmetic."""
    acc = Fraction(0)
    for i in range(1, 25):
        acc += Fraction(i % 7 - 3, (i % 5 + 1) * (i % 3 + 2))
    table = {}
    for a in range(12):
        for b in range(12):
            key = (a % 5, b % 4, (a + b) % 3)
            table[key] = table.get(key, 0) + a * b
    return acc, table


def pin():
    """Pin the calling process to its last allowed vCPU; children inherit it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Probe:
    """Samples the speed of the current vCPU from a thread, while in a `with`."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        # at least one sample, however short the child
        while True:
            started = time.thread_time_ns()
            work()
            self.samples.append(time.thread_time_ns() - started)
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    @property
    def mean_ns(self):
        return statistics.fmean(self.samples)

    @property
    def scale(self):
        """Factor from this stretch's seconds to seconds at the reference speed."""
        return REF_NS / self.mean_ns
