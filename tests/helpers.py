"""Shared test utilities: corpora and naive reference implementations.

The naive checkers here are deliberately independent of the package
internals: brute-force enumeration only, no shared code paths beyond the
Digraph container itself.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from judipart import (
    Digraph,
    e_between,
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
