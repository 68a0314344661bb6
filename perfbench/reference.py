"""Machine speed, sampled on the workload's own core while reports run.

The machines this benchmark runs on share their cores with other tenants,
and the same code runs up to about twice as slow for stretches from a
fraction of a second to minutes.  Wall time alone is then too noisy to
compare two commits (README.md, "Noise").  So a thread of the workload
process runs a fixed reference computation of about a millisecond every
50 ms, on the same core (the worker pins itself to one CPU), and records
the thread CPU time each run took.  A report's time in reference units is
its wall time over the mean reference time sampled during it; drift of
the machine's speed cancels in that ratio for the most part.

The reference computation imports nothing from gravinst, so a change to
the program cannot move it, and it does what the program's hot paths do:
a metric-like field summed over centers on 3-vectors, a finite-difference
stencil of 4x4 outer products contracted with einsum, and scalar Python
float math.  Its time tracks the workloads' slowdowns about one to one
(README.md, "Noise").  Changing it breaks comparison with earlier results.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

PERIOD_S = 0.05

_CENTERS = [np.array([0.1 * j, math.cos(j), math.sin(j)]) for j in range(6)]
_BASIS = np.eye(3)


def _field(x: np.ndarray) -> np.ndarray:
    V = 0.0
    grad = np.zeros(3)
    for c in _CENTERS:
        dx = x - c
        d = float(np.linalg.norm(dx))
        V += 0.5 / d
        grad -= 0.5 * (dx / d) / d**2
    u = np.array([1.0, grad[0], grad[1], grad[2]])
    g = np.outer(u, u) / V
    g[1, 1] += V
    g[2, 2] += V
    g[3, 3] += V
    return g


def _stencil(n: int) -> float:
    acc = 0.0
    for i in range(n):
        x = np.array([0.3 + 1e-3 * i, 2.0, -1.5])
        gs = np.stack([_field(x + 1e-3 * _BASIS[k % 3]) for k in range(6)])
        acc += float(np.einsum("ijk,ilk->jl", gs[:4], gs[:4])[0, 0])
        for k in range(20):
            acc += math.log1p(math.hypot(acc, k) % 3.0)
    return acc


def reference_unit() -> float:
    """The fixed reference computation (about 1 ms on an idle 2 GHz core)."""
    return _stencil(3)


class SpeedSampler:
    """Times ``reference_unit`` every PERIOD_S seconds in a background
    thread until stopped.  Use as a context manager."""

    def __init__(self):
        self.ends: list[float] = []  # perf_counter at the end of each sample
        self.cpu_s: list[float] = []  # thread CPU time the sample took
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        t0 = time.thread_time()
        reference_unit()
        self.cpu_s.append(time.thread_time() - t0)
        self.ends.append(time.perf_counter())

    def _run(self) -> None:
        while not self._halt.wait(PERIOD_S):
            self._sample()

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._halt.set()
        self._thread.join()

    def mean_between(self, t0: float, t1: float) -> float:
        """Mean reference time of the samples that ended in [t0, t1];
        the sample nearest t1 when none did."""
        n = len(self.ends)  # the thread may append while we read
        inside = [c for e, c in zip(self.ends[:n], self.cpu_s[:n]) if t0 <= e <= t1]
        if inside:
            return sum(inside) / len(inside)
        nearest = min(range(n), key=lambda i: abs(self.ends[i] - t1))
        return self.cpu_s[nearest]
