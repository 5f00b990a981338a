"""The machine's speed, measured next to the work it is used to rescale.

A shared host changes the speed of a core by up to a factor of two within
seconds (a busy neighbour on the same physical core, say), and pure-Python
and numpy work slow down together, if not by the same factor. So every time
the benchmark reports is rescaled to a reference speed: a fixed probe,
independent of judipart, runs after each stretch of measured work for a set
share of its time, and a stretch that took t seconds, bracketed by probes
that took p seconds on average, reports as t * PROBE_NOMINAL_S / p. The
report prints the raw wall times as well.

PROBE_NOMINAL_S is a round figure near the probe's time on a quiet host, for
a 2-vCPU Intel Xeon KVM guest with Python 3.11 and numpy 2.4, whose probe
times ranged over about 14 to 25 ms as the host's load changed. So on that
machine rescaled times are close to the raw times of a quiet host.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_NOMINAL_S = 0.015
SHARE = 0.15  # probe seconds per second of measured work

_rng = np.random.default_rng(20060101)
_KEYS = _rng.integers(0, 1 << 20, size=300_000)
_ORDER = _rng.permutation(_KEYS.size)
_SMALL = [_rng.integers(0, 24, size=48) for _ in range(16)]


def probe() -> int:
    """Fixed work in the engine's mix, in three parts of about equal time: a
    Python loop over a small dict; numpy gather, sort and bincount on arrays a
    few times the L2 cache; and many different numpy calls on tiny arrays,
    whose cost is per-call overhead, as on small graphs."""
    acc: dict[int, int] = {}
    for k in range(36_000):
        acc[k & 511] = acc.get(k & 511, 0) + k
    a = _KEYS[_ORDER]
    total = int(np.sort(a)[::97].sum()) + int(np.bincount(a & 4095).max()) + len(acc)
    for i in range(170):
        a = _SMALL[i & 15]
        mask = a > 11
        counts = np.zeros(24, dtype=np.int64)
        np.add.at(counts, a, 1)
        order = np.argsort(a, kind="stable")
        w = np.where(mask, a, -a)
        total += int(counts[a[order[:5]]].sum()) + int(np.unique(a[mask]).size)
        total += int(np.cumsum(np.bincount(a, minlength=24))[-1])
        total += int(np.flatnonzero(w < 0).size) + int(np.concatenate([a[:3], w[:2]]).max())
    return total


class Meter:
    """Probe seconds owed and paid, in windows that the caller closes.

    `work(seconds)` adds SHARE of them to the probe time owed and pays it off
    at once, so probes follow the work they rescale. `close()` ends a window
    and returns its scale: PROBE_NOMINAL_S over the mean of the probes run in
    it and in the window before, so that probes bracket the work from both
    sides. A time measured in the window times that scale is the time at the
    reference speed.
    """

    def __init__(self, clock=time.perf_counter, run_probe=probe):
        self.clock = clock
        self.run_probe = run_probe
        self.owed = 0.0
        self.previous: list[float] = []
        self.window: list[float] = []

    def sample(self) -> float:
        t0 = self.clock()
        self.run_probe()
        elapsed = self.clock() - t0
        self.window.append(elapsed)
        return elapsed

    def work(self, seconds: float) -> None:
        self.owed += SHARE * seconds
        while self.owed > 0 or not self.window:
            self.owed -= self.sample()

    def prime(self, probes: int = 8) -> None:
        """Probe before the first window, which then has probes on both sides."""
        for _ in range(probes):
            self.sample()
        self.previous, self.window = self.window, []

    def close(self) -> float:
        if not self.window:
            self.sample()
        scale = PROBE_NOMINAL_S / statistics.fmean(self.previous + self.window)
        self.previous, self.window = self.window, []
        return scale
