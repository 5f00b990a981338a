"""Exhaustive oracles, cross-checked against an even dumber enumerator."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import judipart.oracle
from judipart import (
    Bipartition,
    CutValue,
    EmptyGraphError,
    IdentityViolationError,
    TooLargeError,
    cut_counts,
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


def test_self_check_cadence(monkeypatch):
    for seed in range(6):
        D = gen_random_minout(6 + seed, 2, extra=seed, seed=seed)
        assert exact_max_min_cut(D, check_every=1) == exact_max_min_cut(D)

    def drifted(D, P):
        c = cut_counts(D, P)
        return CutValue(c.e12 + 1, c.e21, min(c.e12 + 1, c.e21))

    monkeypatch.setattr(judipart.oracle, "cut_counts", drifted)
    with pytest.raises(IdentityViolationError):
        exact_max_min_cut(D, check_every=1)


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
