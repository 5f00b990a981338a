"""Minimum-gap solver: subset-sum DP for any e(X), residual quantities."""
from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import arc_list, reference_dp_min_gap, vertex_stats
from judipart import mingap
from judipart.digraph import _CENSUS_BLOCK
from judipart import (
    EngineConfig,
    PartitionError,
    e_between,
    exact_min_gap,
    from_arc_list,
    gap,
    gen_random_minout,
    gen_skew_d4,
    mf_mb,
    min_gap_partition,
    partition,
    split_by_degree,
)


def split_of(D, xs):
    gr = min_gap_partition(D, xs)
    assert set(gr.x1) | set(gr.x2) == set(xs)
    assert not set(gr.x1) & set(gr.x2)
    return gr


def test_gap_antisymmetry_and_mf_mb():
    D = gen_random_minout(10, 2, extra=4, seed=21)
    xs, ys = [0, 1, 4, 7], [2, 3, 5, 6, 8, 9]
    x1, x2 = [0, 4], [1, 7]
    th = gap(D, x1, x2)
    assert th == -gap(D, x2, x1)
    mm = mf_mb(D, x1, x2)
    assert mm.z == e_between(D, x1, ys)
    assert mm.zprime == e_between(D, ys, x2)
    assert mm.mf == mm.z + mm.zprime
    assert mm.mb == e_between(D, x2, ys) + e_between(D, ys, x1)
    assert mm.mf - mm.mb == th


def test_cover_validation():
    D = gen_random_minout(6, 1, seed=2)
    with pytest.raises(PartitionError):
        gap(D, [0, 1], [1, 2])
    with pytest.raises(PartitionError):
        mf_mb(D, [0, 1], [1, 2])


def test_solver_equals_oracle_both_paths():
    rng = random.Random(31)
    zero = pos = 0
    for i in range(40):
        n = rng.randint(4, 14)
        D = gen_random_minout(n, rng.randint(1, 2), extra=rng.randint(0, 4),
                              seed=500 + i)
        k = rng.randint(1, min(10, n - 1))
        xs = sorted(rng.sample(range(n), k))
        gr = split_of(D, xs)
        orc = exact_min_gap(D, xs)
        assert gr.theta_abs_min == orc.theta_abs_min
        assert abs(gap(D, gr.x1, gr.x2)) == gr.theta_abs_min
        if e_between(D, xs, xs) == 0:
            zero += 1
        else:
            pos += 1
    assert zero > 0 and pos > 0


def test_tie_break_prefers_late_inclusion():
    D = gen_skew_d4(20)
    gr = min_gap_partition(D, range(5))
    assert gr.theta_abs_min == 15
    assert gr.x1 == (4,)  # scan places early vertices on side 2 when it can
    orc = exact_min_gap(D, range(5))
    assert orc.x1 == (1,)  # the oracle freezes a different optimum: same value
    assert abs(gap(D, orc.x1, orc.x2)) == 15


def test_theta_from_signed_imbalances_when_x_arc_free():
    D = from_arc_list(
        8,
        [(0, 3), (0, 4), (0, 5), (1, 3), (1, 6), (4, 1), (5, 1), (6, 1),
         (7, 0), (3, 7), (4, 7), (2, 6), (6, 2), (5, 2)],
    )
    xs = [0, 1, 2]
    assert e_between(D, xs, xs) == 0
    stats = vertex_stats(D)
    gr = split_of(D, xs)
    want = sum(stats[v].splus for v in gr.x1) - sum(stats[v].splus for v in gr.x2)
    assert gap(D, gr.x1, gr.x2) == want == gr.theta


def test_huge_and_residual_quantities():
    D = gen_skew_d4(20)
    gr = min_gap_partition(D, range(5))
    stats = vertex_stats(D)
    th = gr.theta_abs_min
    want_huge = sorted((v for v in range(5) if stats[v].s >= th),
                       key=lambda v: (-stats[v].s, v))
    assert list(gr.huge) == want_huge
    assert gr.k == (len(gr.huge) - 1) // 2
    assert gr.g == sum(stats[v].s for v in range(5) if stats[v].s < th)
    assert gr.b == sum(stats[v].degree - stats[v].s for v in range(5)) // 2
    for v in gr.forward:
        in_x1 = v in gr.x1
        assert (in_x1 and stats[v].splus > 0) or (not in_x1 and stats[v].splus < 0)
    for v in gr.backward:
        in_x1 = v in gr.x1
        assert (in_x1 and stats[v].splus < 0) or (not in_x1 and stats[v].splus > 0)


def test_even_huge_set_reports_k_none():
    D = from_arc_list(6, [(0, 2), (0, 3), (0, 4), (0, 5),
                          (1, 2), (1, 3), (1, 4), (1, 5)])
    gr = min_gap_partition(D, [0, 1])
    assert gr.theta_abs_min == 0
    assert gr.x1 == (1,)
    assert gr.huge == (0, 1)
    assert gr.k is None
    assert gr.g == 0 and gr.b == 0


def test_large_x_with_inner_arcs_solves():
    D = gen_random_minout(30, 1, extra=30, seed=9)
    xs = list(range(26))
    assert e_between(D, xs, xs) > 0
    gr = min_gap_partition(D, xs)
    assert abs(gap(D, gr.x1, gr.x2)) == gr.theta_abs_min
    assert gap(D, gr.x1, gr.x2) == gr.theta


def tie_heavy_lists(k, rng):
    """Value lists of length k whose minimum-gap partitions tie many ways."""
    a = rng.randint(1, 9)
    yield [a] * k
    yield [-a] * k
    yield [rng.choice((a, 2 * a)) for _ in range(k)]
    yield [a * (-1) ** i for i in range(k)]
    yield [rng.choice((-a, 0, a)) for _ in range(k)]
    pairs = [rng.randint(1, 30) for _ in range(k // 2)]
    yield [v for b in pairs for v in (b, -b)] + [a] * (k % 2)


@pytest.mark.parametrize("k", range(61))
def test_dp_matches_full_table_reference(k):
    """Checkpointed DP against the full-suffix-table referee on every length
    0-60, so every block boundary (1, 2, j^2, j^2 +- 1) is crossed."""
    rng = random.Random(7000 + k)
    lists = [[rng.randint(-lim, lim) for _ in range(k)]
             for lim in (1, 3, 40, 2000) for _ in range(3)]
    lists += [[rng.randint(0, 50) for _ in range(k)] for _ in range(2)]
    lists += list(tie_heavy_lists(k, rng))
    for values in lists:
        xs = sorted(rng.sample(range(3 * k + 1), k))
        assert mingap._dp_min_gap(xs, values) == reference_dp_min_gap(xs, values), values


def hub_digraph(n, hubs, degree, seed):
    """A gen_random_minout(n, 4) base plus `hubs` vertices 0.. with `degree`
    extra out-arcs each to distinct random heads; repeated arcs merge."""
    base = gen_random_minout(n, 4, seed=seed)
    rng = np.random.default_rng(seed)
    tails = np.repeat(np.arange(hubs), degree)
    heads = np.concatenate([rng.choice(n, degree, replace=False)
                            for _ in range(hubs)])
    loop = tails == heads
    codes = np.unique(np.concatenate([base.tails * n + base.heads,
                                      tails[~loop] * n + heads[~loop]]))
    return from_arc_list(n, np.column_stack(np.divmod(codes, n)))


def test_hub_graph_beyond_full_table():
    """|X| = 300 hubs: a full suffix table would need items x (span + 1) >
    10^8 bits; the checkpointed DP solves it in a fraction of that."""
    D = hub_digraph(20_000, 300, 1800, seed=1)
    xs = split_by_degree(D)
    assert len(xs) == 300
    tracemalloc.start()
    try:
        gr = min_gap_partition(D, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    to_y, from_y = gr.y_census
    w = (to_y - from_y)[list(xs)]
    table_bytes = np.count_nonzero(w) * (int(np.abs(w).sum()) + 1) // 8
    assert table_bytes * 8 > 10 ** 8
    assert peak < table_bytes / 3
    assert abs(gap(D, gr.x1, gr.x2)) == gr.theta_abs_min
    out = partition(D, EngineConfig(d=4))
    assert out.x == xs
    assert out.certificate.bundle.theta == gr.theta_abs_min


def test_gap_stage_memory_does_not_follow_the_arcs():
    """40 hubs of degree 25000 on n = 50000: m spans several census blocks,
    yet the gap stage holds the census's one block of arcs (a mask and the
    selected int64 ends, 9 bytes per arc of the block), a few n-sized count
    arrays and the DP's bitsets, not an int64 per arc into Y (8 m bytes)."""
    D = hub_digraph(50_000, 40, 25_000, seed=2)
    assert D.m > 4 * _CENSUS_BLOCK
    xs = split_by_degree(D)
    assert len(xs) == 40
    min_gap_partition(D, xs)  # one-time set-up, unmeasured
    tracemalloc.start()
    try:
        gr = min_gap_partition(D, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * _CENSUS_BLOCK + 48 * D.n + 2 * 1024 * 1024, peak
    assert abs(gap(D, gr.x1, gr.x2)) == gr.theta_abs_min


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=2 ** 8 - 1))
def test_solver_minimality(seed, mask):
    D = gen_random_minout(8, 1, extra=seed % 5, seed=seed)
    xs = [0, 1, 2, 3, 4]
    gr = min_gap_partition(D, xs)
    x1 = [v for v in xs if mask >> v & 1]
    x2 = [v for v in xs if not mask >> v & 1]
    assert gr.theta_abs_min <= abs(gap(D, x1, x2))


def reversed_digraph(D):
    return from_arc_list(D.n, [(h, t) for t, h in arc_list(D)])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=2 ** 40 - 1))
def test_reversal_keeps_min_gap_and_negates_gap(seed, k, mask):
    rng = random.Random(seed)
    n = k + rng.randint(5, 20)
    D = gen_random_minout(n, rng.randint(1, 3), extra=rng.randint(0, 2 * n),
                          seed=seed)
    R = reversed_digraph(D)
    xs = sorted(rng.sample(range(n), k))
    gd, gr = min_gap_partition(D, xs), min_gap_partition(R, xs)
    assert gd.theta_abs_min == gr.theta_abs_min
    assert gap(R, gr.x1, gr.x2) == gr.theta
    x1 = [v for i, v in enumerate(xs) if mask >> i & 1]
    x2 = [v for i, v in enumerate(xs) if not mask >> i & 1]
    assert gap(R, x1, x2) == -gap(D, x1, x2)
    assert gd.theta_abs_min <= abs(gap(D, x1, x2))
