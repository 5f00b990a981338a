"""Arithmetic the benchmark reports with: the tail percentile rule and the
failure tally."""
from __future__ import annotations

import math
import statistics
from collections import Counter

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def nearest_rank(samples, q: float) -> tuple[float, int]:
    """The q-th percentile by nearest rank, and how many samples lie beyond it."""
    xs = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def p90(samples) -> tuple[float, str]:
    """p90 by nearest rank, and a label. The label says whether it is
    resolved: at least MIN_BEYOND samples lie beyond it (100 or more
    samples). An unresolved p90 is still reported, as the run's result line
    carries every metric, but it rests on the few slowest samples."""
    value, beyond = nearest_rank(samples, 90)
    if beyond >= MIN_BEYOND:
        return value, f"p90 of {len(samples)}"
    return value, f"p90 of {len(samples)}, unresolved: {beyond} beyond it"


def pass_median(passes) -> float:
    """Median over passes of the mean seconds per op in each pass. A pass is
    one op per graph of the workload, so on a one-graph workload this is the
    median op time. On a corpus it keeps the median off the gap of a bimodal
    op-time distribution, where the corpus's mix alone would move it."""
    return statistics.median(sum(s[0] for s in p) / len(p) for p in passes)


class Tally:
    """Attempted and failed ops. An op fails once however many of its checks
    fail; the reasons are counted per check so a report can name them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def record(self, failures) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons.update(failures)
        return not failures

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
