"""Instance generators: arc counts, degree contracts, determinism."""
from __future__ import annotations

import random

import numpy as np
import pytest

from helpers import arc_codes, arc_list, reference_gen_random_minout, vertex_stats
from judipart import (
    EvenOrderError,
    GenParamError,
    InfeasibleParamsError,
    TooSmallError,
    FAMILIES,
    e_between,
    gen_eulerian_complete,
    gen_random_minout,
    gen_skew_d4,
    gen_skew_d6,
    gen_star_triangle,
    gen_tight_union,
    min_outdegree,
)


def test_eulerian_complete():
    for q in (3, 5, 9):
        D = gen_eulerian_complete(q)
        assert D.n == q and D.m == q * (q - 1) // 2
        assert all(s.dplus == s.dminus == (q - 1) // 2
                   for s in vertex_stats(D).values())
        # exactly one arc per unordered pair
        codes = arc_codes(D)
        assert all((u * q + v in codes) != (v * q + u in codes)
                   for u in range(q) for v in range(u + 1, q))
    with pytest.raises(TooSmallError):
        gen_eulerian_complete(1)
    with pytest.raises(EvenOrderError):
        gen_eulerian_complete(6)


def test_tight_union_counts_and_augment():
    d, copies = 4, 3
    small, big = 2 * d - 1, 2 * d + 1
    D = gen_tight_union(d, copies)
    assert D.n == copies * small + big
    assert D.m == copies * small * (small - 1) // 2 + big * (big - 1) // 2
    assert min_outdegree(D) == d - 1  # the small cliques cap it
    A = gen_tight_union(d, copies, augment=True)
    assert A.m == D.m + copies * small
    assert min_outdegree(A) == d
    with pytest.raises(InfeasibleParamsError):
        gen_tight_union(0, 1)
    with pytest.raises(InfeasibleParamsError):
        gen_tight_union(3, -1)


def test_circulant_families_match_loop_reference():
    def circulant(q, base=0):
        return [(base + u, base + (u + i) % q)
                for u in range(q) for i in range(1, (q - 1) // 2 + 1)]

    def tight_union(d, copies, augment):
        small, big = 2 * d - 1, 2 * d + 1
        arcs = [a for c in range(copies) for a in circulant(small, c * small)]
        arcs += circulant(big, copies * small)
        if augment:
            arcs += [(j, copies * small + j % big) for j in range(copies * small)]
        return arcs

    for q in (3, 5, 9, 15):
        assert arc_list(gen_eulerian_complete(q)) == circulant(q)
    for d, copies, augment in [(1, 3, True), (2, 0, False), (3, 4, False), (4, 5, True)]:
        assert arc_list(gen_tight_union(d, copies, augment)) == tight_union(d, copies, augment)


def test_array_built_families_match_loop_reference():
    """star-triangle and skew-d4 build their arcs as arrays, in the order
    of these pair loops, so their edge lists are unchanged."""
    def star_triangle(n):
        return [(0, 1), (1, 2), (2, 0)] + [(v, 0) for v in range(3, n)]

    def skew_d4(n):
        arcs = [(u, v) for u in range(5) for v in range(5) if u != v]
        arcs += [(0, y) for y in range(5, n)]
        return arcs + [(y, v) for y in range(5, n) for v in range(1, 5)]

    for n in (4, 5, 9, 30):
        assert arc_list(gen_star_triangle(n)) == star_triangle(n)
    for n in (10, 11, 20, 41):
        assert arc_list(gen_skew_d4(n)) == skew_d4(n)


def test_star_triangle():
    for n in (4, 7, 30):
        D = gen_star_triangle(n)
        assert D.n == n and D.m == n
        assert min_outdegree(D) == 1
        st = vertex_stats(D)
        assert st[0].degree == n - 1
        assert max(s.degree for v, s in st.items() if v >= 3) <= 2
    with pytest.raises(TooSmallError):
        gen_star_triangle(3)


def test_skew_d4():
    for n in (10, 20, 41):
        D = gen_skew_d4(n)
        assert D.m == 5 * n - 5
        assert min_outdegree(D) == 4
        st = vertex_stats(D)
        assert st[0].dplus == n - 1          # broadcaster reaches everyone
        assert all(st[v].dminus == n - 1 for v in range(1, 5))
        assert e_between(D, range(5, n), range(5, n)) == 0
    with pytest.raises(TooSmallError):
        gen_skew_d4(9)


def test_skew_d6():
    D = gen_skew_d6(60, seed=4)
    assert D.n == 60 and D.m == 6 * 60
    assert min_outdegree(D) == 6
    assert e_between(D, range(3), range(3)) == 0
    E = gen_skew_d6(60, seed=4)
    assert arc_codes(E) == arc_codes(D)
    F = gen_skew_d6(60, seed=5)
    assert arc_codes(F) != arc_codes(D)
    with pytest.raises(TooSmallError):
        gen_skew_d6(20)
    with pytest.raises(GenParamError, match="seed must be >= 0"):
        gen_skew_d6(60, seed=-1)


@pytest.mark.parametrize("n", [30, 31, 47, 200])
@pytest.mark.parametrize("seed", [0, 1, 9])
def test_skew_d6_degree_contract(n, seed):
    """m = 6n and every outdegree is 6, by construction."""
    D = gen_skew_d6(n, seed=seed)
    assert D.m == 6 * n
    assert min_outdegree(D) == 6
    assert D.out_degrees.tolist() == [6] * n


def test_random_minout():
    D = gen_random_minout(50, 3, extra=20, seed=1)
    assert D.n == 50 and D.m == 50 * 3 + 20
    assert min_outdegree(D) >= 3
    assert arc_codes(gen_random_minout(50, 3, extra=20, seed=1)) == arc_codes(D)
    assert arc_codes(gen_random_minout(50, 3, extra=20, seed=2)) != arc_codes(D)
    with pytest.raises(InfeasibleParamsError):
        gen_random_minout(4, 4)
    with pytest.raises(InfeasibleParamsError):
        gen_random_minout(3, 1, extra=10)
    with pytest.raises(InfeasibleParamsError):
        gen_random_minout(3, 1, extra=-1)
    with pytest.raises(GenParamError, match="seed must be >= 0"):
        gen_random_minout(50, 3, seed=-1)


def _random_minout_params():
    """(n, d, extra, seed) sets: mixed sizes; n = d + 1, where a row is
    redrawn until it holds all n - 1 other vertices; and extra from 0 to
    every remaining arc."""
    rng = random.Random(11)
    out = []
    for i in range(130):
        n = rng.randint(2, 40)
        d = rng.randint(1, min(n - 1, 6))
        free = n * (n - 1) - n * d
        extra = (0, min(n, free), rng.randint(0, free), max(free - 1, 0), free)[i % 5]
        out.append((n, d, extra, rng.randint(0, 10 ** 6)))
    for n in range(2, 8):  # n = d + 1
        out += [(n, n - 1, 0, n), (n, n - 1, 0, 100 + n)]
    out += [(20, 6, 50, s) for s in range(10)]  # rows with repeats
    out += [(120, 1, 120 * 119 - 120, 0), (1000, 3, 5000, 2), (2000, 4, 2000, 5)]
    return out


def test_random_minout_matches_one_draw_at_a_time():
    params = _random_minout_params()
    assert len(params) >= 150
    for n, d, extra, seed in params:
        D = gen_random_minout(n, d, extra=extra, seed=seed)
        ref = reference_gen_random_minout(n, d, extra=extra, seed=seed)
        assert np.array_equal(D.tails, ref.tails), (n, d, extra, seed)
        assert np.array_equal(D.heads, ref.heads), (n, d, extra, seed)


def test_family_registry():
    assert set(FAMILIES) == {
        "eulerian", "tight-union", "star-triangle", "skew-d4", "skew-d6", "random",
    }
    for fn, params in FAMILIES.values():
        assert callable(fn)
        assert all(isinstance(p, str) for p in params)
