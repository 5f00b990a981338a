"""The timed process: a closed loop of ops over one workload's cached inputs.

One process, one thread, one caller that waits for each result. An op is one
`parse_edge_list(text)` followed by one `partition(D, EngineConfig(...))`,
which is `judipart partition --input FILE` without interpreter start-up. The
loop runs whole passes over the workload's graphs until `--seconds` have
passed and, untraced, MIN_OPS ops are made, after one untimed warm-up pass. Every op, warm-up included, is checked
(see check_op) and a failed check counts the op as failed without stopping
the run.

Each pass is followed by the speed probe for a share of its time (speed.py);
the op times of a pass are rescaled by the probes on both sides of it, and
the raw wall times go into the report.

With --trace 1 the passes alternate between untraced and traced; the traced
ones give the per-layer numbers and the ratio of the two medians is the
tracing overhead. Spans are written to perfbench/.out/ when the run ends.

Prints one JSON line with the tally, the metrics and a few report lines.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import speed
import stats
import tracing
from common import MissingSourceError, OUT, cache_dir, import_judipart

# Layers whose per-op self time is a metric. Each runs on every workload;
# the uniform-split test and the oracle (set-up only) appear in the report.
LAYER_TIMES = (
    "digraph.parse_edge_list",
    "engine.split_by_degree",
    "gap.min_gap_partition",
    "engine.candidate_x_partitions",
    "engine.extension_trial_cuts",
    "engine.extend_partition_randomized",
    "engine.local_improve",
    "tight.essential_tight_components",
    "certify.build_certificate",
    "engine.partition",
)
LAYER_COUNTS = (
    "engine.local_improve.calls",
    "engine.local_improve.flipped",
    "engine.local_improve.lift",
    "engine.extension_trial_cuts.cells",
    "digraph.cut_counts.calls_in_extend",
    "engine.pair_escape.accepted",
    "gap.x_size",
    "engine.candidate_x_partitions.count",
    "tight.components",
    "tight.tau",
    "certify.checks",
)
NOT_A_LAYER = ("op", tracing.BOOKKEEPING)
# Timed ops an untraced run makes at the least, past --seconds if need be:
# with fewer, the p90 by nearest rank is the slowest op.
MIN_OPS = 10


def check_op(jp, D, out, optimum) -> list[str]:
    """Names of the checks this op's outcome fails; empty when it passes."""
    failed = []
    if out.cut != jp.cut_counts(D, out.bipartition):
        failed.append("cut != cut_counts(D, bipartition)")
    if not all(jp.verify_record(rec) for rec in out.certificate.checks):
        failed.append("certificate record fails verify_record")
    if optimum is not None and out.cut.minval > optimum:
        failed.append("min cut above the oracle optimum")
    return failed


def referee_agrees(out, optimum) -> bool:
    """Exact optimum where setup computed one; on graphs too large for the
    oracle the referee is the paper's target ratio the engine reports."""
    if optimum is not None:
        return out.cut.minval == optimum
    return out.ratio >= out.guarantee_target


class Loop:
    """Runs and checks ops; keeps one (seconds, arcs, ratio, agrees) sample
    per op that passed, its seconds rescaled to the reference speed."""

    def __init__(self, jp, texts, optima, cfg):
        self.jp = jp
        self.texts = texts
        self.optima = optima
        self.cfg = cfg
        self.meter = speed.Meter()
        self.raw_pass_s: list[float] = []  # mean wall seconds per op, per pass
        self.pass_scales: list[float] = []
        self.tally = stats.Tally()
        self.outputs: dict[int, bytes] = {}  # graph -> first to_jsonable() bytes
        self.repeats_checked = 0

    def op(self, i: int, parse, partition, tracer=None):
        if tracer is not None:
            tracer.begin_op()
        timed = tracer.span("op") if tracer is not None else nullcontext()
        try:
            t0 = time.perf_counter()
            with timed:
                D = parse(self.texts[i])
                out = partition(D, self.cfg)
            elapsed = time.perf_counter() - t0
            failures = check_op(self.jp, D, out, self.optima[i])
            record = json.dumps(out.to_jsonable()).encode()
            first = self.outputs.setdefault(i, record)
            if first is not record:
                self.repeats_checked += 1
                if first != record:
                    failures.append("repeated op gave a different to_jsonable()")
        except Exception as exc:  # a failed op is counted, the run goes on
            failures = [f"raised {type(exc).__name__}"]
            print(f"op on graph {i} raised {exc!r}", file=sys.stderr)
        if not self.tally.record(failures):
            print(f"op on graph {i} failed: {failures}", file=sys.stderr)
            return None
        return elapsed, D.m, out.ratio, referee_agrees(out, self.optima[i])

    def run_pass(self, parse, partition, tracer=None) -> list:
        """One op per graph; the samples of the ops that passed, their
        seconds rescaled by the probes on both sides of this pass. The probes
        run between passes, not between ops, so that they do not evict an
        op's working set from the caches in the middle of a pass."""
        t0 = time.perf_counter()
        samples = [self.op(i, parse, partition, tracer) for i in range(len(self.texts))]
        self.meter.work(time.perf_counter() - t0)
        samples = [s for s in samples if s is not None]
        scale = self.meter.close()
        self.pass_scales.append(scale)
        self.raw_pass_s.append(
            sum(s[0] for s in samples) / len(samples) if samples else float("nan"))
        return [(s[0] * scale, *s[1:]) for s in samples]


def end_to_end(passes, tally) -> tuple[dict, list[str]]:
    """End-to-end figures from the untraced timed passes."""
    samples = [s for p in passes for s in p]
    times = [s[0] for s in samples]
    p90, p90_label = stats.p90(times)
    metrics = {
        "solve_s_p50": (stats.pass_median(passes), "s"),
        "solve_s_p90": (p90, "s"),
        "arcs_per_s": (sum(s[1] for s in samples) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ratio_mean": (sum(s[2] for s in samples) / len(samples), "ratio"),
        "oracle_agree": (sum(s[3] for s in samples) / len(samples), "share"),
        "ok_rate": (1.0 - tally.fail_rate, "share"),
    }
    return metrics, [f"solve_s_p50 over {len(passes)} passes of {len(times)} timed ops"
                     f" (median op {statistics.median(times):.6g} s); "
                     f"solve_s_p90 is the {p90_label}; times are at the reference speed"]


def per_layer(tracer, plain, traced, scale) -> tuple[dict, list[str], dict]:
    """Per-op layer figures from the traced passes; `scale` rescales their
    seconds to the reference speed."""
    table = tracing.layer_table(tracer.spans)
    for row in table.values():
        row["total_s"] *= scale
        row["self_s"] *= scale
    ops = tracer.op + 1
    op_s = table["op"]["total_s"]
    metrics = {}
    for name in LAYER_TIMES:
        metrics[name + ".self_s"] = (table.get(name, {"self_s": 0.0})["self_s"] / ops, "s")
    for name in LAYER_COUNTS:
        metrics[name] = (tracer.counts[name] / ops, "count")
    overhead = stats.pass_median(traced) / stats.pass_median(plain)
    metrics["trace.overhead"] = (overhead, "x")
    metrics["machine.slowdown"] = (1.0 / scale, "x")
    notes = [f"{'layer (per traced op, ' + str(ops) + ' ops)':44s} {'calls':>9s}"
             f" {'total_s':>10s} {'self_s':>10s} {'self %':>7s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        notes.append(f"{name:44s} {row['calls'] / ops:9.1f} {row['total_s'] / ops:10.5f}"
                     f" {row['self_s'] / ops:10.5f} {100 * row['self_s'] / op_s:7.1f}")
    dominant = max((row["self_s"], name) for name, row in table.items()
                   if name not in NOT_A_LAYER)[1]
    notes.append(f"dominant layer: {dominant} "
                 f"({100 * table[dominant]['self_s'] / op_s:.1f} % of traced op time)")
    return metrics, notes, {"layers": table, "dominant": dominant}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        jp = import_judipart()
    except MissingSourceError as exc:
        print(exc, file=sys.stderr)
        return 2
    folder = cache_dir(args.workload, args.seed)
    manifest = json.loads((folder / "manifest.json").read_text())
    texts = [(folder / g["file"]).read_text() for g in manifest["graphs"]]
    optima = [g["optimum"] for g in manifest["graphs"]]
    cfg = jp.EngineConfig(d=manifest["d"], trials=manifest["trials"], seed=0)
    loop = Loop(jp, texts, optima, cfg)

    loop.run_pass(jp.parse_edge_list, jp.partition)  # warm-up, untimed
    loop.raw_pass_s.clear()
    loop.pass_scales.clear()
    tracer = tracing.Tracer() if args.trace else None
    plain: list = []
    traced: list = []
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while True:
        if tracer is not None and passes % 2 == 1:
            with tracing.installed(tracer, jp) as (parse, partition):
                traced.append(loop.run_pass(parse, partition, tracer))
        else:
            plain.append(loop.run_pass(jp.parse_edge_list, jp.partition))
        passes += 1
        enough = passes >= 2 if tracer is not None else len(plain) * len(texts) >= MIN_OPS
        if time.perf_counter() >= deadline and enough:
            break
    if not all(plain + traced):
        print("no op passed its checks; nothing to report", file=sys.stderr)
        return 1

    if tracer is None:
        metrics, notes = end_to_end(plain, loop.tally)
    else:
        # traced passes are the odd ones; weight their scales by pass time
        raw = loop.raw_pass_s[1::2]
        scale = sum(r * k for r, k in zip(raw, loop.pass_scales[1::2])) / sum(raw)
        metrics, notes, summary = per_layer(tracer, plain, traced, scale)
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{args.workload}-s{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": tracer.spans, "counts": dict(tracer.counts), **summary,
        }))
        notes.append(f"spans written to {path.relative_to(OUT.parent.parent)}")
    notes.append(f"raw wall seconds per op: median pass {statistics.median(loop.raw_pass_s):.6g};"
                 f" the probe ran {1 / statistics.median(loop.pass_scales):.3f} x its nominal"
                 f" {speed.PROBE_NOMINAL_S} s (median pass)")
    tally = loop.tally
    notes.append(f"fail_rate {tally.fail_rate:.4f} ({tally.failed} of {tally.attempted}"
                 f" ops, warm-up included){': ' if tally.reasons else ''}"
                 + "; ".join(f"{k} x{v}" for k, v in tally.reasons.items()))
    notes.append(f"{loop.repeats_checked} repeated ops compared byte for byte "
                 "with their graph's first to_jsonable()")
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "notes": notes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
