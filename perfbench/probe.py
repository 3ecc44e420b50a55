"""Host-speed probe for the timed fedcl processes.

The benchmark's reference machine is a shared host whose cores switch
between a fast state and a state about 1.6 times slower, many times a second,
and sometimes stay slow for minutes. A timed section of a few seconds
therefore runs at a speed that changes from run to run. ``HostProbe`` runs a
fixed reference task every ``PERIOD_S`` seconds on the same thread, from a
SIGALRM handler, while the workload runs. The task's mean duration over the
section, divided by ``REFERENCE_S``, is the section's host slowdown. The task is
the benchmark's own code, with no fedcl in it, so a change to fedcl cannot
change it. It mixes the two kinds of work a fedcl step does: small dense
matrix products and interpreter work on Python objects. It allocates under
100 KiB, so it leaves ``peak_rss_mb`` alone.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
# The host speed that timings are scaled to: one probe task takes this long.
# On the reference machine (2-core Intel Xeon, Python 3.11, numpy 2.4, one
# BLAS thread) the task's mean in a timed fedcl process read 170 to 260 us
# in slow spells, in which fedcl ran about 1.5 times slower than when the
# host was lightly loaded; this is the slow-spell level divided by 1.5.
REFERENCE_S = 0.000135


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(32, 29))
        self._w1 = rng.normal(size=(29, 64))
        self._w2 = rng.normal(size=(64, 8))
        self._y = rng.normal(size=(32, 8))
        self.samples: list[float] = []

    def _task(self) -> float:
        # one forward and backward pass of a 29-64-8 MLP on a batch of 32
        h = np.tanh(self._x @ self._w1)
        g = (h @ self._w2 - self._y) / 32.0
        grad = self._x.T @ ((g @ self._w2.T) * (1.0 - h * h))
        # interpreter work on dicts and floats, about three quarters of the
        # task: it tracks the host's slow state more closely than numpy does
        acc: dict[int, float] = {}
        for i in range(450):
            acc[i % 17] = acc.get(i % 17, 0.0) + i * 0.5
        return float(grad[0, 0]) + sum(acc.values())

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._task()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        self.samples.clear()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def total_s(self) -> float:
        """Time spent in probe tasks since ``start``."""
        return sum(self.samples)

    def slowdown(self) -> float:
        """Mean probe duration relative to ``REFERENCE_S``."""
        return (sum(self.samples) / len(self.samples)) / REFERENCE_S
