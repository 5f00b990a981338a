"""Spans and counters for the traced run, kept in memory until the run ends.

Nothing under src/ knows about this module. `installed()` swaps the public
functions of each layer, as the engine looks them up, for wrappers that open a
span around the call and add the layer's counters; leaving the block puts the
originals back, so untraced passes run the unmodified code.

A span is [name, start, end, parent, op]: parent is the index of the
enclosing span (-1 for a root) and op numbers the request the span belongs
to. Counter bookkeeping that needs extra work (recomputing a cut, diffing
sides) runs inside a `trace.bookkeeping` span, so it is charged to the tracer
and not to the caller's self time.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

BOOKKEEPING = "trace.bookkeeping"
EXTEND = "engine.extend_partition_randomized"
LOCAL_IMPROVE = "engine.local_improve"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.open_names: Counter = Counter()
        self.op = -1

    def begin_op(self) -> None:
        self.op += 1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op])
        self.stack.append(idx)
        self.open_names[name] += 1
        self.counts[name + ".calls"] += 1
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = self.clock()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")
        self.open_names[span[0]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)


def covered_length(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [
        (s[2] - s[1]) - covered_length(children[i], s[1], s[2])
        for i, s in enumerate(spans)
    ]


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds, summed."""
    table: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[2] - s[1]
        row["self_s"] += self_s
    return table


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            with tracer.span(BOOKKEEPING):
                after(result, *args)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer, judipart):
    """Trace the engine's layers while the block runs; yields wrapped
    (parse_edge_list, partition) for the caller's own op loop."""
    eng, cert = judipart.engine, judipart.certify
    cut_counts = eng.cut_counts
    counts = tracer.counts

    def after_local_improve(out, D, P, cfg):
        counts[LOCAL_IMPROVE + ".flipped"] += int((out.sides != P.sides).sum())
        counts[LOCAL_IMPROVE + ".lift"] += (
            cut_counts(D, out).minval - cut_counts(D, P).minval
        )

    def after_trial_cuts(out, *args):
        counts["engine.extension_trial_cuts.cells"] += int(out[2].size)

    def after_tight(report, *args):
        counts["tight.components"] += len(report.components)
        counts["tight.tau"] += report.tau

    def after_gap(gr, *args):
        counts["gap.x_size"] += len(gr.x)

    def after_candidates(cands, *args):
        counts["engine.candidate_x_partitions.count"] += len(cands)

    def after_certificate(certificate, *args):
        counts["certify.checks"] += len(certificate.checks)

    extend = _wrap(tracer, EXTEND, eng.extend_partition_randomized)

    def extend_counting_escapes(*args, **kwargs):
        before = counts[LOCAL_IMPROVE + ".calls"]
        result = extend(*args, **kwargs)
        # the first local_improve polishes the best trial; every further one
        # follows a move that the pair escape accepted
        counts["engine.pair_escape.accepted"] += max(
            0, counts[LOCAL_IMPROVE + ".calls"] - before - 1
        )
        return result

    def counting_cut_counts(D, P):
        if tracer.open_names[EXTEND]:
            counts["digraph.cut_counts.calls_in_extend"] += 1
        return cut_counts(D, P)

    patches = [
        (eng, "uniform_split_applicable", _wrap(
            tracer, "engine.uniform_split_applicable", eng.uniform_split_applicable)),
        (eng, "split_by_degree", _wrap(
            tracer, "engine.split_by_degree", eng.split_by_degree)),
        (eng, "min_gap_partition", _wrap(
            tracer, "gap.min_gap_partition", eng.min_gap_partition, after_gap)),
        (eng, "candidate_x_partitions", _wrap(
            tracer, "engine.candidate_x_partitions", eng.candidate_x_partitions,
            after_candidates)),
        (eng, "extend_partition_randomized", extend_counting_escapes),
        (eng, "extension_trial_cuts", _wrap(
            tracer, "engine.extension_trial_cuts", eng.extension_trial_cuts,
            after_trial_cuts)),
        (eng, "local_improve", _wrap(
            tracer, LOCAL_IMPROVE, eng.local_improve, after_local_improve)),
        (eng, "essential_tight_components", _wrap(
            tracer, "tight.essential_tight_components",
            eng.essential_tight_components, after_tight)),
        (eng, "cut_counts", counting_cut_counts),
        (cert, "build_certificate", _wrap(
            tracer, "certify.build_certificate", cert.build_certificate,
            after_certificate)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    for mod, attr, fn in patches:
        setattr(mod, attr, fn)
    try:
        yield (
            _wrap(tracer, "digraph.parse_edge_list", judipart.parse_edge_list),
            _wrap(tracer, "engine.partition", eng.partition),
        )
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
