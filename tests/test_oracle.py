"""Exhaustive oracles, cross-checked against the plain Gray-code walk they
replaced and an even dumber enumerator."""
from __future__ import annotations

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import judipart.oracle
from helpers import complement, reference_max_min_cut, reference_min_gap
from judipart import (
    Bipartition,
    EmptyGraphError,
    TooLargeError,
    cut_counts,
    e_between,
    exact_max_min_cut,
    exact_min_gap,
    from_arc_list,
    gap,
    gen_eulerian_complete,
    gen_random_minout,
    gen_skew_d4,
)


def dumb_max_min_cut(D):
    """All 2^n side assignments, counted arc by arc in pure Python."""
    best = -1
    arcs = list(zip(D.tails.tolist(), D.heads.tolist()))
    for assign in itertools.product((1, 2), repeat=D.n):
        e12 = sum(1 for u, v in arcs if assign[u] == 1 and assign[v] == 2)
        e21 = sum(1 for u, v in arcs if assign[u] == 2 and assign[v] == 1)
        best = max(best, min(e12, e21))
    return best


def test_directed_triangle():
    D = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
    res = exact_max_min_cut(D)
    assert res.optimum == 1
    assert res.evaluated == 2 ** (3 - 1)
    c = cut_counts(D, res.witness)
    assert min(c.e12, c.e21) == 1


def test_single_arc_and_empty():
    D = from_arc_list(2, [(0, 1)])
    assert exact_max_min_cut(D).optimum == 0
    with pytest.raises(EmptyGraphError):
        exact_max_min_cut(from_arc_list(0, []))


def test_odd_clique_optimum_is_balanced_split():
    # circulant K_q: every split with a on one side cuts a(q-a) arcs, half
    # each way, so the optimum is floor(q/2) * ceil(q/2) / 2 exactly
    for q in (5, 7, 9):
        D = gen_eulerian_complete(q)
        want = (q // 2) * ((q + 1) // 2) // 2
        assert exact_max_min_cut(D).optimum == want


def test_matches_dumb_enumeration():
    for seed in range(8):
        D = gen_random_minout(5 + seed % 2, 1, extra=seed, seed=seed)
        assert exact_max_min_cut(D).optimum == dumb_max_min_cut(D)


def test_limit_guard():
    D = gen_random_minout(26, 1, seed=0)
    with pytest.raises(TooLargeError):
        exact_max_min_cut(D, limit=24)
    with pytest.raises(TooLargeError):
        exact_min_gap(D, range(26), limit=24)


def test_witness_is_reproducible_and_valid():
    D = gen_random_minout(10, 2, extra=3, seed=5)
    r1 = exact_max_min_cut(D)
    r2 = exact_max_min_cut(D)
    assert r1.witness.side1() == r2.witness.side1()
    c = cut_counts(D, r1.witness)
    assert min(c.e12, c.e21) == r1.optimum
    assert all(0 <= v < D.n for v in r1.witness.side1())


def test_min_gap_oracle_definitional():
    D = gen_random_minout(9, 2, extra=2, seed=11)
    xs = [0, 2, 5, 7]
    res = exact_min_gap(D, xs)
    best = min(
        abs(gap(D,
                [v for i, v in enumerate(xs) if pick >> i & 1],
                [v for i, v in enumerate(xs) if not pick >> i & 1]))
        for pick in range(2 ** len(xs))
    )
    assert res.theta_abs_min == best
    assert abs(gap(D, res.x1, res.x2)) == best
    assert res.evaluated == 2 ** len(xs)


def test_min_gap_witness_pinned_on_skew_instance():
    D = gen_skew_d4(20)
    res = exact_min_gap(D, range(5))
    assert res.theta_abs_min == 15
    assert res.x1 == (1,)  # first optimum in the scan order, frozen


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_optimum_bounds_and_dominance(seed):
    D = gen_random_minout(6, 1, extra=seed % 6, seed=seed)
    res = exact_max_min_cut(D)
    assert 0 <= res.optimum <= D.m // 2
    P = Bipartition.from_side1(D.n, [v for v in range(D.n) if seed >> v & 1])
    c = cut_counts(D, P)
    assert min(c.e12, c.e21) <= res.optimum


def test_optimum_survives_relabelling_and_arc_reversal():
    """Relabelling the vertices keeps the optimum. Reversing every arc swaps
    e12 and e21 of every bipartition, so the Gray-code scan reaches the same
    witness with its two counts swapped."""
    for i in range(12):
        n = 6 + i % 9  # up to 14
        D = gen_random_minout(n, 2, extra=i, seed=500 + i)
        res = exact_max_min_cut(D)
        perm = np.random.default_rng(i).permutation(n)
        relabelled = from_arc_list(n, np.stack([perm[D.tails], perm[D.heads]], axis=1))
        assert exact_max_min_cut(relabelled).optimum == res.optimum
        reversed_ = from_arc_list(n, np.stack([D.heads, D.tails], axis=1))
        rev = exact_max_min_cut(reversed_)
        assert rev.optimum == res.optimum and rev.witness == res.witness
        c, r = cut_counts(D, res.witness), cut_counts(reversed_, rev.witness)
        assert (r.e12, r.e21) == (c.e21, c.e12)


def dense_graphs():
    """The complete digraph on 13 vertices, the Eulerian circulant on 13, and
    a 12-vertex graph whose every arc is one of an anti-parallel pair: their
    sweeps hold values far from zero."""
    complete = from_arc_list(13, [(u, v) for u in range(13) for v in range(13) if u != v])
    rng = random.Random(7)
    pairs = [(u, v) for u, v in itertools.combinations(range(12), 2) if rng.random() < 0.6]
    both_ways = from_arc_list(12, sorted(pairs + [(v, u) for u, v in pairs]))
    return [complete, gen_eulerian_complete(13), both_ways]


def oracle_corpus():
    """320 graphs: 150 random d = 3 graphs at n = 10-13 (the bench's
    small-oracle recipe at the low end of its n range), n = 1..7 without
    arcs, 40 graphs rich in anti-parallel pairs, 120 sparse random ones and
    the three dense_graphs."""
    graphs = []
    for i in range(150):
        n = 10 + i % 4
        extra = int(np.random.default_rng(i).integers(0, n + 1))
        graphs.append(gen_random_minout(n, 3, extra=extra, seed=i))
    graphs += [from_arc_list(n, []) for n in range(1, 8)]
    for i in range(40):
        rng = random.Random(i)
        n = rng.randint(2, 11)
        arcs = set()
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            arcs.add((u, v))
            if rng.random() < 0.5:
                arcs.add((v, u))
        graphs.append(from_arc_list(n, sorted(arcs)))
    for i in range(120):
        rng = random.Random(1000 + i)
        n = rng.randint(6, 12)
        graphs.append(gen_random_minout(n, rng.randint(1, 2), extra=rng.randint(0, n), seed=i))
    return graphs + dense_graphs()


@pytest.fixture(scope="module")
def walked():
    """Each corpus graph with the Gray walk's (optimum, witness, evaluated)."""
    return [(D, reference_max_min_cut(D)) for D in oracle_corpus()]


@pytest.fixture(scope="module")
def gap_cases():
    """The pinned skew-d4 case, 260 random X (empty and whole V included)
    over the corpus and three X in each dense graph, each with the Gray
    walk's result."""
    rng = random.Random(5)
    graphs = oracle_corpus()
    cases = [(gen_skew_d4(20), list(range(5)))]
    for i in range(260):
        D = graphs[i % len(graphs)]
        cases.append((D, rng.sample(range(D.n), rng.randint(0, min(D.n, 12)))))
    cases += [(D, x) for D in dense_graphs()
              for x in (range(D.n), range(0, D.n, 2), [1, 4, 5, 9, 11])]
    return [(D, x, reference_min_gap(D, x)) for D, x in cases]


# 3 bits: every graph of n >= 5 spans several blocks, n = 13 spans 512
@pytest.mark.parametrize("block_bits", [judipart.oracle._BLOCK_BITS, 3])
def test_max_min_cut_is_the_gray_walk(walked, block_bits, monkeypatch):
    monkeypatch.setattr(judipart.oracle, "_BLOCK_BITS", block_bits)
    assert len(walked) >= 300
    assert any(D.n == 1 for D, _ in walked) and any(D.m == 0 for D, _ in walked)
    for D, want in walked:
        got = exact_max_min_cut(D)
        assert (got.optimum, got.witness, got.evaluated) == want


@pytest.mark.parametrize("block_bits", [judipart.oracle._BLOCK_BITS, 3])
def test_min_gap_is_the_gray_walk(gap_cases, block_bits, monkeypatch):
    monkeypatch.setattr(judipart.oracle, "_BLOCK_BITS", block_bits)
    assert gap_cases[0][2][2] == (1,)  # the pinned skew-d4 witness
    for D, x, want in gap_cases:
        got = exact_min_gap(D, x)
        assert (got.theta_abs_min, got.theta, got.x1, got.x2, got.evaluated) == want


@pytest.mark.parametrize("block_bits", [judipart.oracle._BLOCK_BITS, 3])
def test_min_gap_of_a_few_hubs_in_a_large_graph(block_bits, monkeypatch):
    """12 hubs with 2000-3650 extra out-arcs each in a graph of 113,900 arcs:
    twice the sum of |w| is past int16, so the tables take a wider dtype
    than X's size alone would suggest, and the result is still the walk's."""
    monkeypatch.setattr(judipart.oracle, "_BLOCK_BITS", block_bits)
    n, hubs = 20_000, list(range(0, 1200, 100))
    base = gen_random_minout(n, 4, seed=3)
    rng = np.random.default_rng(3)
    tails = np.repeat(hubs, [2000 + 150 * i for i in range(len(hubs))])
    heads = rng.integers(len(hubs) * 100, n, size=tails.size)
    codes = np.unique(np.concatenate([base.tails * n + base.heads, tails * n + heads]))
    D = from_arc_list(n, np.column_stack(np.divmod(codes, n)))
    assert D.m >= 10**5
    want = reference_min_gap(D, hubs)
    ys = complement(n, hubs)
    bound = 2 * sum(abs(e_between(D, [v], ys) - e_between(D, ys, [v])) for v in hubs)
    assert bound > np.iinfo(np.int16).max
    assert judipart.oracle._signed_dtype(bound) == np.int32
    got = exact_min_gap(D, hubs)
    assert (got.theta_abs_min, got.theta, got.x1, got.x2, got.evaluated) == want


def test_block_widths_alternate_in_one_process(monkeypatch):
    """The tables cached for one block width never serve another: the same
    graphs at 16, 3 and 16 bits again, each time the walk's result."""
    cases = [gen_random_minout(n, 3, extra=n, seed=n) for n in (5, 9, 13)]
    wants = [(reference_max_min_cut(D), reference_min_gap(D, range(D.n))) for D in cases]
    for block_bits in (16, 3, 16):
        monkeypatch.setattr(judipart.oracle, "_BLOCK_BITS", block_bits)
        for D, (cut_want, gap_want) in zip(cases, wants):
            got = exact_max_min_cut(D)
            assert (got.optimum, got.witness, got.evaluated) == cut_want
            got = exact_min_gap(D, range(D.n))
            assert (got.theta_abs_min, got.theta, got.x1, got.x2,
                    got.evaluated) == gap_want


def test_cached_tables_are_read_only():
    popcount, states, orders = judipart.oracle._block_tables(8)
    for table in (popcount, states, *orders):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
    assert judipart.oracle._block_tables(8) is judipart.oracle._block_tables(8)


def test_n26_outcome():
    """n = 26 (2^25 states in 512 blocks, ten high vertices) reproduces the
    optimum and witness of the sweep before its tables were narrowed."""
    res = exact_max_min_cut(gen_random_minout(26, 3, seed=1), limit=26)
    assert (res.optimum, res.evaluated) == (28, 2**25)
    assert res.witness.side1() == (0, 3, 4, 5, 6, 7, 9, 12, 16, 21, 23, 24, 25)


def test_n24_outcome_and_one_block_of_memory():
    """n = 24 (2^23 states in 128 blocks) reproduces the witness the Gray
    walk found, and the sweep's traced peak at n = 22, the cached tables
    built inside it, stays far below the 2^21 states it scores."""
    res = exact_max_min_cut(gen_random_minout(24, 3, seed=1))
    assert (res.optimum, res.evaluated) == (27, 2**23)
    assert res.witness.side1() == (0, 3, 4, 5, 6, 7, 11, 15, 16, 19, 21, 22)
    D = gen_random_minout(22, 3, extra=22, seed=2)
    judipart.oracle._block_tables.cache_clear()
    tracemalloc.start()
    try:
        exact_max_min_cut(D)
        exact_min_gap(D, range(22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
