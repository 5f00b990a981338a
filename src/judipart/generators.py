"""Instance generators.

Families exercised by the tests and the benchmarks:

- eulerian: complete digraph-free circulant on an odd q; arcs u -> u+i
  (mod q) for 1 <= i <= (q-1)/2, so outdeg = indeg = (q-1)/2 everywhere and
  every bipartition sees equal flow both ways.
- tight-union: disjoint copies of the Eulerian circulant on 2d-1 vertices
  plus one on 2d+1; optional augment wires one extra arc from every small-
  clique vertex into the big clique so the minimum outdegree reaches d.
- star-triangle: a directed triangle through vertex 0 plus an arc v -> 0 from
  every other vertex; m = n and the best achievable min-direction cut is 1.
- skew-d4: five mutually joined vertices (all 20 ordered pairs), vertex 0
  dominating Y, and all of Y dominating vertices 1..4; minimum outdegree 4
  with per-vertex imbalance n-5 on all five core vertices.
- skew-d6: three sinks fed by all of Y, each sending 6 arcs to distinct
  Y-vertices, and a seeded 3-out-regular layer inside Y; e(X) = 0 with
  imbalance n-9 on each core vertex.
- random: each vertex draws d distinct out-neighbors, plus optional extra
  arcs; minimum outdegree >= d by construction.

All generators are deterministic for a fixed seed and return validated
digraphs.
"""
from __future__ import annotations

import numpy as np

from .digraph import Digraph, from_arc_list
from .errors import (
    EvenOrderError,
    GenParamError,
    InfeasibleParamsError,
    TooSmallError,
)


def _circulant(q: int) -> np.ndarray:
    """Arcs u -> u+1, ..., u+(q-1)/2 mod q of the circulant on 0..q-1, q odd."""
    u = np.repeat(np.arange(q), (q - 1) // 2)
    return np.column_stack((u, (u + np.tile(np.arange(1, (q + 1) // 2), q)) % q))


def gen_eulerian_complete(q: int) -> Digraph:
    """Circulant orientation of K_q, q odd: u -> u+1, ..., u+(q-1)/2 mod q."""
    if q < 3:
        raise TooSmallError(f"eulerian family needs q >= 3, got {q}")
    if q % 2 == 0:
        raise EvenOrderError(f"eulerian family needs odd q, got {q}")
    return from_arc_list(q, _circulant(q))


def gen_tight_union(d: int, copies: int, augment: bool = False) -> Digraph:
    """copies x circulant K_{2d-1}, then one circulant K_{2d+1} at the end.

    With augment, small-clique vertex at global index j also sends one arc to
    big-clique vertex j mod (2d+1), lifting its outdegree from d-1 to d.
    """
    if d < 1:
        raise InfeasibleParamsError(f"tight-union needs d >= 1, got {d}")
    if copies < 0:
        raise InfeasibleParamsError(f"copies must be >= 0, got {copies}")
    small = 2 * d - 1
    big = 2 * d + 1
    big_base = copies * small
    bases = np.arange(copies)[:, None, None] * small
    parts = [(_circulant(small) + bases).reshape(-1, 2), _circulant(big) + big_base]
    if augment:
        j = np.arange(copies * small)
        parts.append(np.column_stack((j, big_base + j % big)))
    return from_arc_list(big_base + big, np.concatenate(parts))


def gen_star_triangle(n: int) -> Digraph:
    """Directed triangle 0 -> 1 -> 2 -> 0 plus v -> 0 for every v >= 3."""
    if n < 4:
        raise TooSmallError(f"star-triangle needs n >= 4, got {n}")
    arcs = [(0, 1), (1, 2), (2, 0)]
    arcs.extend((v, 0) for v in range(3, n))
    return from_arc_list(n, arcs)


def gen_skew_d4(n: int) -> Digraph:
    """Five-core instance with minimum outdegree 4 and core imbalance n-5."""
    if n < 10:
        raise TooSmallError(f"skew-d4 needs n >= 10, got {n}")
    core = range(5)
    arcs = [(u, v) for u in core for v in core if u != v]
    arcs.extend((0, y) for y in range(5, n))
    arcs.extend((y, v) for y in range(5, n) for v in range(1, 5))
    return from_arc_list(n, arcs)


def gen_skew_d6(n: int, seed: int = 0) -> Digraph:
    """Three-core instance with minimum outdegree 6, e(X) = 0, imbalance n-9.

    Core vertices 0..2 each receive an arc from every Y-vertex and send 6
    arcs to Y-vertices chosen with pairwise distinct heads; Y carries a seeded
    3-out-regular layer. So every outdegree is 6 and m = 6n by construction.
    """
    if n < 30:
        raise TooSmallError(f"skew-d6 needs n >= 30, got {n}")
    if seed < 0:
        raise GenParamError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    ys = np.arange(3, n)
    arcs = [(y, x) for y in range(3, n) for x in range(3)]
    heads = rng.permutation(ys)[:18]
    for x in range(3):
        arcs.extend((x, int(h)) for h in heads[6 * x: 6 * x + 6])
    for y in range(3, n):
        pool = rng.permutation(n - 3)[:4] + 3
        targets = [int(t) for t in pool if t != y][:3]
        arcs.extend((y, t) for t in targets)
    return from_arc_list(n, arcs)


def gen_random_minout(n: int, d: int, extra: int = 0, seed: int = 0) -> Digraph:
    """Each vertex picks d distinct out-neighbors; extra arcs sampled on top."""
    if d < 1 or n <= d:
        raise InfeasibleParamsError(
            f"random family needs n > d >= 1, got n={n} d={d}"
        )
    if extra < 0:
        raise InfeasibleParamsError(f"extra must be >= 0, got {extra}")
    if seed < 0:
        raise GenParamError(f"seed must be >= 0, got {seed}")
    if n * d + extra > n * (n - 1):
        raise InfeasibleParamsError(
            f"cannot fit {n * d + extra} distinct arcs on {n} vertices"
        )
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, n - 1, size=(n, d), dtype=np.int64)
    rows = np.arange(n)[:, None]
    picks = np.where(picks >= rows, picks + 1, picks)  # skip the loop target
    # rows with repeated targets are redrawn whole, in ascending order, until
    # their targets are distinct; rare for d << n
    ordered = np.sort(picks, axis=1)
    for v in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)).tolist():
        while len(set(picks[v].tolist())) != d:
            redraw = rng.integers(0, n - 1, size=d, dtype=np.int64)
            picks[v] = np.where(redraw >= v, redraw + 1, redraw)
    codes = np.sort((rows * n + picks).ravel())
    # extra arcs: draw (u, v != u) pairs and keep the first `need` codes not
    # taken yet, in draw order. A batch of tiled bounds yields the numbers
    # that alternating scalar draws of u and v would, and its size follows
    # the share of codes still free; the rng is not used afterwards, so
    # drawing past the last kept code changes nothing.
    need, pairs = extra, n * (n - 1)
    while need:
        batch = -(-need * pairs // (pairs - len(codes)))
        u, v = rng.integers(0, np.tile([n, n - 1], batch)).reshape(batch, 2).T
        drawn = u * n + v + (v >= u)
        order = np.argsort(drawn, kind="stable")
        ranked = drawn[order]
        first = np.ones(batch, dtype=bool)  # first draw of its code
        first[1:] = ranked[1:] != ranked[:-1]
        at = np.minimum(np.searchsorted(codes, ranked), len(codes) - 1)
        fresh = np.zeros(batch, dtype=bool)
        fresh[order[first & (codes[at] != ranked)]] = True
        kept = drawn[np.flatnonzero(fresh)[:need]]
        codes = np.sort(np.concatenate((codes, kept)))
        need -= len(kept)
    return from_arc_list(n, np.column_stack(np.divmod(codes, n)))


FAMILIES = {
    "eulerian": (gen_eulerian_complete, ("q",)),
    "tight-union": (gen_tight_union, ("d", "copies", "augment")),
    "star-triangle": (gen_star_triangle, ("n",)),
    "skew-d4": (gen_skew_d4, ("n",)),
    "skew-d6": (gen_skew_d6, ("n", "seed")),
    "random": (gen_random_minout, ("n", "d", "extra", "seed")),
}
