"""Shared test utilities: corpora and naive reference implementations.

The naive checkers here are deliberately independent of the package
internals: brute-force enumeration only, no shared code paths beyond the
Digraph container itself. The references below are the earlier, plainer
versions of the random-graph generator, the per-trial random streams and the
two search kernels; the fast versions must reproduce them number for number.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from zlib import crc32

import numpy as np

from judipart import (
    Bipartition,
    Digraph,
    cut_counts,
    e_between,
    from_arc_list,
    gen_eulerian_complete,
    gen_random_minout,
    gen_skew_d4,
    gen_skew_d6,
    gen_star_triangle,
    gen_tight_union,
)


def arc_codes(D: Digraph) -> frozenset:
    """Set of tail * n + head codes of D's arcs."""
    return frozenset((D.tails * D.n + D.heads).tolist())


def arc_list(D: Digraph) -> list[tuple[int, int]]:
    """D's arcs as (tail, head) pairs in construction order."""
    return list(zip(D.tails.tolist(), D.heads.tolist()))


@dataclass(frozen=True)
class VertexStats:
    """Per-vertex degree bookkeeping.

    splus = outdegree - indegree (signed); sminus = -splus; s = |splus|.
    degree - s is always even: it is twice min(outdegree, indegree).
    """

    dplus: int
    dminus: int
    degree: int
    splus: int
    sminus: int
    s: int


def vertex_stats(D: Digraph) -> dict[int, VertexStats]:
    out = {}
    for v in range(D.n):
        dp, dm = int(D.out_degrees[v]), int(D.in_degrees[v])
        sp = dp - dm
        out[v] = VertexStats(
            dplus=dp, dminus=dm, degree=dp + dm, splus=sp, sminus=-sp, s=abs(sp)
        )
    return out


def independent_x(D: Digraph, rng: random.Random, cap: int = 12) -> list[int]:
    """Greedy arc-free subset of vertices, at most cap of them."""
    order = list(range(D.n))
    rng.shuffle(order)
    codes = arc_codes(D)
    xs: list[int] = []
    for v in order:
        if len(xs) >= cap:
            break
        if all(u * D.n + v not in codes and v * D.n + u not in codes for u in xs):
            xs.append(v)
    return sorted(xs)


def mixed_gap_corpus(count: int = 200, base_seed: int = 9000):
    """(D, xs, ys, e_x) tuples, alternating arc-free and arbitrary X."""
    out = []
    for i in range(count):
        rng = random.Random(base_seed + i)
        n = rng.randint(4, 20)
        d = rng.randint(1, 2)
        D = gen_random_minout(n, d, extra=rng.randint(0, n), seed=base_seed + i)
        if i % 2 == 0:
            xs = independent_x(D, rng) or [0]
        else:
            xs = sorted(rng.sample(range(D.n), rng.randint(1, min(12, n - 1))))
        ys = sorted(set(range(D.n)) - set(xs))
        out.append((D, xs, ys, e_between(D, xs, xs)))
    return out


def engine_corpus_50():
    """50 varied instances with the min outdegree to claim for each."""
    out = []
    for q in (5, 7, 9):
        out.append((gen_eulerian_complete(q), (q - 1) // 2))
    out.append((gen_tight_union(4, 2), 3))
    out.append((gen_tight_union(4, 3, augment=True), 4))
    out.append((gen_tight_union(3, 2), 2))
    for n in (6, 12, 25, 40):
        out.append((gen_star_triangle(n), 1))
    for n in (10, 14, 20, 33, 50):
        out.append((gen_skew_d4(n), 4))
    for n in (30, 60, 120):
        out.append((gen_skew_d6(n, seed=n), 6))
    i = 0
    while len(out) < 50:
        n = 5 + i % 12
        d = 1 + i % 3
        out.append((gen_random_minout(n, d, extra=i % 7, seed=400 + i), d))
        i += 1
    return out


# --- naive tight-component checker -----------------------------------------

def naive_underlying(D: Digraph, ys) -> dict[int, set[int]]:
    yset = set(ys)
    adj: dict[int, set[int]] = {v: set() for v in yset}
    for u, v in zip(D.tails.tolist(), D.heads.tolist()):
        if u in yset and v in yset:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def naive_components(adj: dict[int, set[int]]) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def _simple_cycles_edges(adj: dict[int, set[int]], comp) -> list[frozenset]:
    """Every simple cycle of the subgraph, as a frozenset of undirected edges."""
    cycles = []
    for s in sorted(comp):
        stack = [(s, (s,))]
        while stack:
            v, path = stack.pop()
            for w in adj[v]:
                if w == s and len(path) >= 3:
                    edges = {frozenset((path[i], path[i + 1]))
                             for i in range(len(path) - 1)}
                    edges.add(frozenset((v, s)))
                    cycles.append(frozenset(edges))
                elif w > s and w not in path:
                    stack.append((w, path + (w,)))
    return cycles


def naive_blocks(adj: dict[int, set[int]], comp) -> list[tuple[tuple[int, ...], int]]:
    """Biconnected blocks as (vertex tuple, edge count), via the
    same-cycle equivalence on edges; bridges become 2-vertex blocks."""
    comp = tuple(sorted(comp))
    if len(comp) == 1:
        return [((comp[0],), 0)]
    edges = {frozenset((u, v)) for u in comp for v in adj[u] if v > u}
    parent = {e: e for e in edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for cyc in _simple_cycles_edges(adj, comp):
        cyc = list(cyc)
        root = find(cyc[0])
        for e in cyc[1:]:
            parent[find(e)] = root
    groups: dict[frozenset, list[frozenset]] = {}
    for e in edges:
        groups.setdefault(find(e), []).append(e)
    out = []
    for grp in groups.values():
        verts = sorted({v for e in grp for v in e})
        out.append((tuple(verts), len(grp)))
    return sorted(out)


def naive_tight(adj: dict[int, set[int]], comp) -> bool:
    for verts, ecount in naive_blocks(adj, comp):
        q = len(verts)
        if q % 2 == 0 or ecount != q * (q - 1) // 2:
            return False
    return True


def naive_tight_report(D: Digraph, ys):
    """(components, tight flags, essential flags, tau) by brute force."""
    adj = naive_underlying(D, ys)
    comps = naive_components(adj)
    codes = arc_codes(D)
    tight = []
    essential = []
    for comp in comps:
        t = naive_tight(adj, comp)
        anti = any(
            u * D.n + v in codes and v * D.n + u in codes
            for i, u in enumerate(comp)
            for v in comp[i + 1:]
        )
        tight.append(t)
        essential.append(t and not anti)
    return comps, tuple(tight), tuple(essential), sum(essential)


# --- generator and engine kernel references ---------------------------------

def reference_gen_random_minout(n: int, d: int, extra: int = 0, seed: int = 0) -> Digraph:
    """gen_random_minout one draw at a time: each row redrawn until its d
    targets are distinct, then one (u, v) pair per step until extra arcs
    not taken yet have been added. Parameters are assumed valid."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, n - 1, size=(n, d), dtype=np.int64)
    rows = np.arange(n)[:, None]
    picks = np.where(picks >= rows, picks + 1, picks)
    for v in range(n):
        while len(set(picks[v].tolist())) != d:
            redraw = rng.integers(0, n - 1, size=d, dtype=np.int64)
            picks[v] = np.where(redraw >= v, redraw + 1, redraw)
    codes = {int(v) * n + int(t) for v in range(n) for t in picks[v]}
    want = n * d + extra
    while len(codes) < want:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n - 1))
        if v >= u:
            v += 1
        codes.add(u * n + v)
    codes = np.sort(np.fromiter(codes, dtype=np.int64, count=len(codes)))
    return from_arc_list(n, np.column_stack(np.divmod(codes, n)))


def reference_trial_matrix(label: str, p: float, ysize: int, cfg) -> np.ndarray:
    """The trials x ysize assignment matrix, one SeedSequence and one
    generator per trial: row t draws from (cfg.seed, crc32(label), t)."""
    A = np.empty((cfg.trials, ysize), dtype=bool)
    tag = crc32(label.encode("utf-8"))
    for t in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, tag, t)))
        A[t] = rng.random(ysize) < p
    return A


def reference_extension_trial_cuts(D: Digraph, cand, y, cfg):
    """Per-trial (e12, e21) and the trial matrix, by gathering every arc's
    columns out of the trials x |Y| matrix."""
    side1x = np.zeros(D.n, dtype=bool)
    side1x[list(cand.x1)] = True
    in_y = np.zeros(D.n, dtype=bool)
    in_y[list(y)] = True
    ys = np.flatnonzero(in_y)
    yindex = np.full(D.n, -1, dtype=np.int64)
    yindex[ys] = np.arange(len(ys))
    t, h = D.tails, D.heads
    ty, hy = in_y[t], in_y[h]
    t1, h1 = side1x[t], side1x[h]
    cat_xx = ~ty & ~hy
    const12 = int(np.count_nonzero(cat_xx & t1 & ~h1))
    const21 = int(np.count_nonzero(cat_xx & ~t1 & h1))
    cols12_xy = yindex[h[~ty & hy & t1]]    # x1 -> y, cut when y on side 2
    cols21_xy = yindex[h[~ty & hy & ~t1]]   # x2 -> y, cut when y on side 1
    cols12_yx = yindex[t[ty & ~hy & ~h1]]   # y -> x2, cut when y on side 1
    cols21_yx = yindex[t[ty & ~hy & h1]]    # y -> x1, cut when y on side 2
    yy = ty & hy
    yy_t, yy_h = yindex[t[yy]], yindex[h[yy]]
    A = reference_trial_matrix(cand.label, float(cand.p), len(ys), cfg)
    e12s = (
        const12
        + (~A[:, cols12_xy]).sum(axis=1)
        + A[:, cols12_yx].sum(axis=1)
        + (A[:, yy_t] & ~A[:, yy_h]).sum(axis=1)
    )
    e21s = (
        const21
        + A[:, cols21_xy].sum(axis=1)
        + (~A[:, cols21_yx]).sum(axis=1)
        + (~A[:, yy_t] & A[:, yy_h]).sum(axis=1)
    )
    return e12s.astype(np.int64), e21s.astype(np.int64), A


def reference_local_improve(D: Digraph, P: Bipartition, rounds: int) -> Bipartition:
    """Single-vertex flips, one vertex at a time: each round screens every
    vertex against the round's starting cut, then re-checks the screened
    ones in index order against the current cut, accepting a flip when it
    raises (min, total)."""
    def key(e12, e21):
        return min(e12, e21), e12 + e21

    if D.m == 0 or D.n == 0:
        return Bipartition(P.sides)
    outdeg, indeg = D.out_degrees, D.in_degrees
    side1 = P.sides == 1
    out1 = np.bincount(D.tails[side1[D.heads]], minlength=D.n)
    in1 = np.bincount(D.heads[side1[D.tails]], minlength=D.n)
    cut = cut_counts(D, P)
    e12, e21 = cut.e12, cut.e21
    for _ in range(rounds):
        s = np.where(side1, 1, -1)
        d12 = s * (in1 - (outdeg - out1))
        d21 = s * (out1 - (indeg - in1))
        here = key(e12, e21)
        screened = [v for v in range(D.n)
                    if key(e12 + int(d12[v]), e21 + int(d21[v])) > here]
        accepted = 0
        for v in screened:
            sv = 1 if side1[v] else -1
            f12 = sv * int(in1[v] - (outdeg[v] - out1[v]))
            f21 = sv * int(out1[v] - (indeg[v] - in1[v]))
            if key(e12 + f12, e21 + f21) > key(e12, e21):
                e12, e21 = e12 + f12, e21 + f21
                side1[v] = sv < 0
                in1[D.out_neighbors(v)] -= sv
                out1[D.in_neighbors(v)] -= sv
                accepted += 1
        if accepted == 0:
            break
    return Bipartition(np.where(side1, 1, 2))


def single_flip_cuts(D: Digraph, P: Bipartition):
    """(e12, e21) after flipping each vertex alone, as two arrays, counted
    arc by arc: an arc's cut status changes only when one of its ends flips."""
    t1, h1 = P.sides[D.tails] == 1, P.sides[D.heads] == 1
    now12, now21 = t1 & ~h1, ~t1 & h1
    both1, both2 = t1 & h1, ~t1 & ~h1
    # flipping the tail: cut 1->2 iff both ends were on side 2, 2->1 iff on 1
    # flipping the head: cut 1->2 iff both ends were on side 1, 2->1 iff on 2
    d12 = (np.bincount(D.tails, weights=both2.astype(int) - now12, minlength=D.n)
           + np.bincount(D.heads, weights=both1.astype(int) - now12, minlength=D.n))
    d21 = (np.bincount(D.tails, weights=both1.astype(int) - now21, minlength=D.n)
           + np.bincount(D.heads, weights=both2.astype(int) - now21, minlength=D.n))
    return (int(now12.sum()) + d12).astype(np.int64), (int(now21.sum()) + d21).astype(np.int64)

