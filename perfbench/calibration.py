"""Timing calibrated against a reference kernel that runs next to the workload.

On a shared virtual machine a core can run up to 1.5x slower for seconds
at a time, and the share of slow time drifts over tens of minutes. Raw
times then move by more than any useful regression bound between two
sets of runs of the same code. The benchmark therefore reports times at
a fixed reference speed.

`SpeedSampler` times `reference_kernel` in its CPU time while the
workload runs. The kernel never touches proxsure, and it is made of the
operations proxsure's hot loops are made of: small matmuls and generator
construction. A wall interval is converted stretch by stretch. Each
stretch between two samples is scaled by REFERENCE_MS / (the mean kernel
time of the two samples). The kernel's own time is left out. A code
change moves calibrated times as much as raw ones, but a change of core
speed does not.

A kernel sample is only a measure of the machine while the workload is
not running: on a 2-vCPU machine one busy core slows the kernel on the
other by up to 1.4x. So a sample is taken only where no workload code
runs:

- A single-threaded workload stops while the main thread runs a signal
  handler. The sampler interrupts it every PERIOD_S seconds (SIGALRM)
  and times the kernel on the core it runs on.
- A workload whose threads or processes keep running during a signal
  handler is sampled with `idle_only=True`: the caller calls `sample()`
  between passes. Each such sample runs the kernel for IDLE_SAMPLE_S on
  every core in turn (each core changes speed on its own) and takes the
  mean kernel time over all those runs. Speed changes within a pass are
  not seen, so these samples are long, to average over the seconds-long
  slow spells.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

import numpy as np

# Kernel time that calibrated times are scaled to: about this machine's
# typical kernel time, so calibrated seconds read like raw seconds.
REFERENCE_MS = 5.0
PERIOD_S = 0.5  # time between two timer samples
SAMPLE_REPEATS = 5  # kernel timings whose median counts, at a timer run's ends
IDLE_SAMPLE_S = 0.5  # kernel time per core of an idle-only sample
_A = np.random.default_rng(0).standard_normal((32, 32))


def reference_kernel() -> None:
    for i in range(200):
        _A @ _A
        np.random.default_rng(i).integers(0, 2, size=32)


def kernel_ms(repeats: int = 1) -> float:
    """Median CPU time of `repeats` runs of the kernel on this thread, in ms."""
    times = []
    for _ in range(repeats):
        cpu = time.thread_time()
        reference_kernel()
        times.append(1000.0 * (time.thread_time() - cpu))
    return statistics.median(times)


class SpeedSampler:
    """Context manager that samples the core speed while active."""

    def __init__(self, idle_only: bool = False):
        self.idle_only = idle_only
        self.cores = sorted(os.sched_getaffinity(0)) if idle_only else None
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_ms: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        """Record one speed sample; see the module docstring. `repeats`
        is the number of kernel runs whose median counts in a timer
        sampler; an idle-only sample runs the kernel for IDLE_SAMPLE_S."""
        start = time.perf_counter()
        if self.cores is None:
            ms = kernel_ms(repeats)
        else:
            times = []
            for core in self.cores:
                os.sched_setaffinity(0, {core})  # this thread only
                stop = time.perf_counter() + IDLE_SAMPLE_S
                while time.perf_counter() < stop:
                    times.append(kernel_ms())
            os.sched_setaffinity(0, self.cores)
            ms = statistics.fmean(times)
        self.kernel_ms.append(ms)
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def _on_timer(self, *_):
        self.sample()

    def __enter__(self):
        self.sample(SAMPLE_REPEATS)
        if not self.idle_only:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if not self.idle_only:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample(SAMPLE_REPEATS)
        return False

    def _stretches(self, a: float, b: float):
        """(overlap with [a, b], kernel ms) for each stretch between samples."""
        first = max(bisect.bisect_right(self.ends, a) - 1, 0)
        for k in range(first, len(self.starts)):
            lo = self.ends[k - 1] if k > 0 else -np.inf
            if lo >= b:
                break
            overlap = min(b, self.starts[k]) - max(a, lo)
            if overlap > 0:
                ms = self.kernel_ms[k] if k == 0 else 0.5 * (self.kernel_ms[k - 1] + self.kernel_ms[k])
                yield overlap, ms
        overlap = b - max(a, self.ends[-1])
        if overlap > 0:
            yield overlap, self.kernel_ms[-1]

    def busy(self, a: float, b: float) -> float:
        """Wall seconds in [a, b] outside the kernel samples."""
        return sum(overlap for overlap, _ in self._stretches(a, b))

    def calibrated(self, a: float, b: float) -> float:
        """Seconds [a, b] would take at the reference speed."""
        return sum(overlap * REFERENCE_MS / ms for overlap, ms in self._stretches(a, b))
