"""Tests for the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import solve
import speed
import stats
import tracing
from common import import_judipart


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


# --- percentile rule -------------------------------------------------------

def test_nearest_rank_counts_samples_beyond():
    xs = list(range(1, 101))  # 1..100
    assert stats.nearest_rank(xs, 90) == (90, 10)
    assert stats.nearest_rank(xs, 50) == (50, 50)
    assert stats.nearest_rank([7.0], 90) == (7.0, 0)


def test_p90_is_resolved_only_with_ten_samples_beyond_it():
    assert stats.p90(list(range(1, 101))) == (90, "p90 of 100")
    # 99 samples: p90 has rank 90 and only 9 beyond it
    assert stats.p90(list(range(1, 100))) == (90, "p90 of 99, unresolved: 9 beyond it")
    # 12 samples: rank 11, the second slowest
    value, label = stats.p90([float(x) for x in range(12, 0, -1)])
    assert value == 11.0 and label.endswith("unresolved: 1 beyond it")
    assert stats.p90([3.0, 1.0, 2.0])[0] == 3.0


def test_p90_ignores_sample_order():
    xs = [float(i % 17) for i in range(200)]
    assert stats.p90(xs) == stats.p90(sorted(xs))


def test_pass_median_is_the_median_of_pass_means():
    # one-graph workload: each pass is one op, so this is the plain median
    assert stats.pass_median([[(3.0,)], [(1.0,)], [(2.0,)]]) == 2.0
    # a bimodal corpus: half the graphs take 1 s, half 9 s. One graph more in
    # either mode would move the op median from 5 to 1 or 9, not the pass mean
    passes = [[(1.0,)] * 5 + [(9.0,)] * 5, [(1.0,)] * 5 + [(9.0,)] * 5,
              [(2.0,)] * 5 + [(10.0,)] * 5]
    assert stats.pass_median(passes) == 5.0


# --- rescaling to the reference speed ---------------------------------------

def test_meter_pays_its_share_after_the_work_and_rescales_by_the_window():
    # every probe takes 3 nominal probe times: the machine runs at a third
    # of the reference speed
    nominal = speed.PROBE_NOMINAL_S
    ticks = iter(range(10**6))
    clock = lambda: next(ticks) * 3 * nominal  # noqa: E731
    runs = []
    meter = speed.Meter(clock=clock, run_probe=lambda: runs.append(1))
    meter.work(110 * nominal)
    # SHARE of 110 nominal is 16.5 nominal owed; 6 probes of 3 nominal pay it
    assert len(runs) == 6 and meter.owed == pytest.approx(-1.5 * nominal)
    assert meter.close() == pytest.approx(1 / 3)
    assert meter.window == [] and len(meter.previous) == 6


def test_meter_scale_averages_the_probes_on_both_sides_of_a_window():
    n = speed.PROBE_NOMINAL_S
    # primed with 2 probes of 1 n; the window's one probe takes 4 n; the
    # next window's two probes take 1 n each
    meter = speed.Meter(clock=FakeClock([0, n, 0, n, 0, 4 * n, 0, n, 0, n]),
                        run_probe=lambda: None)
    meter.prime(probes=2)
    assert meter.close() == pytest.approx(n / ((n + n + 4 * n) / 3))
    meter.sample()
    meter.sample()
    assert meter.close() == pytest.approx(n / ((4 * n + n + n) / 3))
    assert meter.previous == [n, n]


def test_meter_probes_at_least_once_per_window():
    meter = speed.Meter(clock=FakeClock([0, speed.PROBE_NOMINAL_S] * 3),
                        run_probe=lambda: None)
    assert meter.close() == pytest.approx(1.0)  # nothing measured, still probed
    meter.work(0.0)
    assert meter.close() == pytest.approx(1.0)


def test_pass_times_are_rescaled_by_their_own_window():
    jp = import_judipart()
    texts = [jp.format_edge_list(jp.gen_eulerian_complete(5))]
    loop = solve.Loop(jp, texts, [None], jp.EngineConfig(d=2, trials=4))
    (sample,) = loop.run_pass(jp.parse_edge_list, jp.partition)
    assert sample[0] == pytest.approx(loop.raw_pass_s[0] * loop.pass_scales[0])


# --- self time -------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    # op [0, 10] > partition [1, 9] > {extend [2, 5] > local [3, 4]; tight [6, 8]}
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10]))
    with tr.span("op"):
        with tr.span("partition"):
            with tr.span("extend"):
                with tr.span("local"):
                    pass
            with tr.span("tight"):
                pass
    got = dict(zip((s[0] for s in tr.spans), tracing.self_times(tr.spans)))
    assert got == {"op": 2, "partition": 3, "extend": 2, "local": 1, "tight": 2}
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 2, 1]


def test_layer_table_sums_calls_and_times_per_name():
    spans = [["op", 0, 10, -1, 0], ["a", 1, 3, 0, 0], ["a", 4, 5, 0, 0],
             ["op", 10, 14, -1, 1], ["a", 11, 12, 3, 1]]
    table = tracing.layer_table(spans)
    assert table["a"] == {"calls": 3, "total_s": 4, "self_s": 4}
    assert table["op"] == {"calls": 2, "total_s": 14, "self_s": 10}


def test_covered_length_merges_overlaps_and_clips():
    assert tracing.covered_length([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert tracing.covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert tracing.covered_length([], 0, 10) == 0


def test_span_closed_out_of_order_is_an_error():
    tr = tracing.Tracer(clock=FakeClock(range(10)))
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


# --- failure tally ---------------------------------------------------------

def test_tally_counts_an_op_once_however_many_checks_fail():
    tally = stats.Tally()
    assert tally.record([])
    assert not tally.record(["cut", "certificate"])
    assert not tally.record(["raised ValueError"])
    assert tally.record([])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_rate == 0.5
    assert tally.reasons == {"cut": 1, "certificate": 1, "raised ValueError": 1}


def test_failed_op_is_counted_and_the_loop_goes_on():
    jp = import_judipart()
    texts = [jp.format_edge_list(jp.gen_eulerian_complete(7)), "not an edge list",
             jp.format_edge_list(jp.gen_eulerian_complete(5))]
    loop = solve.Loop(jp, texts, [None, None, 0], jp.EngineConfig(d=2, trials=4))
    samples = loop.run_pass(jp.parse_edge_list, jp.partition)
    # graph 1 does not parse; graph 2 beats the (wrong) optimum 0 it is given
    assert (loop.tally.attempted, loop.tally.failed) == (3, 2)
    assert set(loop.tally.reasons) == {"raised EdgeListParseError",
                                       "min cut above the oracle optimum"}
    assert len(samples) == 1
    loop.run_pass(jp.parse_edge_list, jp.partition)
    assert loop.repeats_checked == 2 and loop.tally.failed == 4


# --- tracing leaves the program's behaviour alone ---------------------------

def test_traced_partition_matches_untraced_and_is_removed_afterwards():
    jp = import_judipart()
    D = jp.gen_random_minout(40, 3, extra=20, seed=5)
    cfg = jp.EngineConfig(d=3, trials=8, seed=0)
    plain = json.dumps(jp.partition(D, cfg).to_jsonable())
    originals = {name: getattr(jp.engine, name) for name in
                 ("local_improve", "cut_counts", "extend_partition_randomized")}
    tr = tracing.Tracer()
    with tracing.installed(tr, jp) as (parse, partition):
        tr.begin_op()
        traced = json.dumps(partition(parse(jp.format_edge_list(D)), cfg).to_jsonable())
    assert traced == plain
    assert all(getattr(jp.engine, k) is v for k, v in originals.items())
    names = {s[0] for s in tr.spans}
    assert {"engine.partition", "engine.local_improve",
            "tight.essential_tight_components"} <= names
    assert tr.counts["engine.local_improve.calls"] == (
        tr.counts["engine.extend_partition_randomized.calls"]
        + tr.counts["engine.pair_escape.accepted"])


# --- the result carries exactly the metrics BENCHMARK.json lists -------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    tally = stats.Tally()
    tally.record([])
    e2e, _ = solve.end_to_end([[(1.0, 10, 0.3, True)]], tally)
    assert set(e2e) | {"setup_s"} == {m["name"] for m in spec["end_to_end"]}
    layer = {n + ".self_s" for n in solve.LAYER_TIMES} | set(solve.LAYER_COUNTS)
    assert layer | {"trace.overhead", "machine.slowdown", "generators.s"} == {m["name"] for m in spec["per_layer"]}
