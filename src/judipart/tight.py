"""Tight components of the digraph induced on a vertex set Y.

Work happens on the underlying undirected graph of D[Y]: anti-parallel arc
pairs collapse to a single undirected edge. A connected component is *tight*
when every biconnected block of it is a complete graph on an odd number of
vertices (isolated vertices and single vertices count, a lone edge K2 does
not). A tight component is *essential* when none of its undirected edges came
from an anti-parallel pair, i.e. the component's arcs inside Y are one-way.

tau(Y) is the number of essential tight components; it is the quantity the
lower-bound certificates consume.

Blocks are computed with the standard edge-stack DFS, kept iterative so that
hundred-thousand-vertex inputs do not hit the recursion limit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Digraph, split_masks


@dataclass(frozen=True)
class TightReport:
    components: tuple[tuple[int, ...], ...]
    tight_flags: tuple[bool, ...]
    essential_flags: tuple[bool, ...]
    tau: int


def underlying_adjacency(D: Digraph, y) -> dict[int, list[int]]:
    """Undirected adjacency of D[Y] with anti-parallel pairs collapsed."""
    return _underlying(D, y)[0]


def _underlying(D: Digraph, y) -> tuple[dict[int, list[int]], np.ndarray]:
    """Undirected adjacency of D[Y], plus a per-vertex mask of the vertices
    that are an end of an anti-parallel pair inside Y."""
    (inside,) = split_masks(D.n, [y], "Y", cover=False)
    adj: dict[int, list[int]] = {v: [] for v in np.flatnonzero(inside).tolist()}
    anti = np.zeros(D.n, dtype=bool)
    if not adj or D.m == 0:
        return adj, anti
    keep = inside[D.tails] & inside[D.heads]
    t = D.tails[keep].astype(np.int64)
    h = D.heads[keep].astype(np.int64)
    lo = np.minimum(t, h)
    hi = np.maximum(t, h)
    codes, counts = np.unique(lo * D.n + hi, return_counts=True)
    pairs = codes[counts == 2]  # both directions present
    anti[pairs // D.n] = True
    anti[pairs % D.n] = True
    for code in codes.tolist():
        u, v = divmod(code, D.n)
        adj[u].append(v)
        adj[v].append(u)
    return adj, anti


def underlying_components(D: Digraph, y) -> list[tuple[int, ...]]:
    """Connected components of the underlying undirected graph of D[Y]."""
    adj = underlying_adjacency(D, y)
    return _components_of(adj)


def _components_of(adj: dict[int, list[int]]) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    comps: list[tuple[int, ...]] = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        comps.append(tuple(sorted(comp)))
    return comps


def _blocks_with_edges(
    adj: dict[int, list[int]], comp
) -> list[tuple[tuple[int, ...], int]]:
    """Biconnected blocks of one component as (vertices, edge count) pairs."""
    comp = list(comp)
    if len(comp) == 1:
        return [((comp[0],), 0)]
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    counter = 0
    edge_stack: list[tuple[int, int]] = []
    out: list[tuple[tuple[int, ...], int]] = []

    def pop_block(u: int, v: int) -> None:
        edges = []
        while True:
            e = edge_stack.pop()
            edges.append(e)
            if e == (u, v):
                break
        verts: set[int] = set()
        for a, b in edges:
            verts.add(a)
            verts.add(b)
        out.append((tuple(sorted(verts)), len(edges)))

    root = comp[0]
    # frames: (vertex, parent, iterator over neighbors)
    disc[root] = low[root] = counter
    counter += 1
    frames = [(root, -1, iter(adj[root]))]
    while frames:
        u, parent, it = frames[-1]
        advanced = False
        for v in it:
            if v == parent:
                # skip one edge back to the parent; simple graph, no multi-edges
                parent = -1
                frames[-1] = (u, -1, it)
                continue
            if v not in disc:
                disc[v] = low[v] = counter
                counter += 1
                edge_stack.append((u, v))
                frames.append((v, u, iter(adj[v])))
                advanced = True
                break
            if disc[v] < disc[u]:
                edge_stack.append((u, v))
                if disc[v] < low[u]:
                    low[u] = disc[v]
        if advanced:
            continue
        frames.pop()
        if frames:
            pu = frames[-1][0]
            if low[u] < low[pu]:
                low[pu] = low[u]
            if low[u] >= disc[pu]:
                pop_block(pu, u)
    return out


def blocks(D: Digraph, component) -> list[tuple[int, ...]]:
    """Vertex sets of the biconnected blocks of one underlying component."""
    adj = underlying_adjacency(D, component)
    return [verts for verts, _ in _blocks_with_edges(adj, component)]


def is_tight(D: Digraph, component) -> bool:
    """True when every block is a complete graph on an odd vertex count."""
    adj = underlying_adjacency(D, component)
    return _is_tight_adj(adj, component)


def _is_tight_adj(adj: dict[int, list[int]], comp) -> bool:
    for verts, ecount in _blocks_with_edges(adj, comp):
        q = len(verts)
        if q % 2 == 0 or ecount != q * (q - 1) // 2:
            return False
    return True


def essential_tight_components(D: Digraph, y) -> TightReport:
    """Classify the components of D[Y]; tau counts the essential tight ones."""
    adj, anti = _underlying(D, y)
    comps = _components_of(adj)
    tight_flags = [_is_tight_adj(adj, comp) for comp in comps]
    essential_flags = [
        t and not anti[list(comp)].any() for t, comp in zip(tight_flags, comps)
    ]
    return TightReport(
        components=tuple(comps),
        tight_flags=tuple(tight_flags),
        essential_flags=tuple(essential_flags),
        tau=sum(essential_flags),
    )
