"""Tight components of the digraph induced on a vertex set Y.

Work happens on the underlying undirected graph of D[Y]: anti-parallel arc
pairs collapse to a single undirected edge. A connected component is *tight*
when every biconnected block of it is a complete graph on an odd number of
vertices (isolated vertices and single vertices count, a lone edge K2 does
not). A tight component is *essential* when none of its undirected edges came
from an anti-parallel pair, i.e. the component's arcs inside Y are one-way.

tau(Y) is the number of essential tight components; it is the quantity the
lower-bound certificates consume.

essential_tight_components classifies every component in one numpy pass:

- The arcs inside Y collapse to sorted undirected codes lo * n + hi with
  np.unique; a code seen twice is an anti-parallel pair.
- Components are labelled by their smallest vertex: across every edge whose
  ends have different roots the larger root hooks under the smaller one
  (np.minimum.at), then pointer jumping takes every label to its root, until
  no edge joins two roots (Shiloach and Vishkin 1982).
- bincounts per component give its size, edge count, odd-degree vertices and
  anti-parallel pairs; one stable radix sort of the component numbers
  (digraph.stable_order, which also builds incidence()) groups the members.

Two lemmas settle most components without a DFS. In a tight component every
block is an odd clique K_q, so every degree is a sum of even terms q - 1, and
the vertex count 1 + sum(q - 1) over the blocks is odd. So a component with an
odd-degree vertex or an even vertex count is not tight (parity filter). And a
component on an odd number q of vertices with q(q - 1)/2 edges is one odd
clique, so it is tight (odd-clique shortcut). Only the components that neither
rule settles reach the block DFS, the edge-stack DFS of Hopcroft and Tarjan
(1973), on an adjacency built for their vertices only. The DFS is iterative so
that hundred-thousand-vertex components do not hit the recursion limit.
It is the module's only classifier.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Digraph, split_masks, stable_order


@dataclass(frozen=True)
class TightReport:
    components: tuple[tuple[int, ...], ...]
    tight_flags: tuple[bool, ...]
    essential_flags: tuple[bool, ...]
    tau: int


def _undirected(D: Digraph, y) -> tuple[np.ndarray, ...]:
    """The vertices of Y, the undirected edges (lo, hi), lo < hi, of D[Y] in
    sorted order, and a flag per edge that is set for an anti-parallel pair."""
    (inside,) = split_masks(D.n, [y], "Y")
    keep = inside[D.tails] & inside[D.heads]
    t = D.tails[keep].astype(np.int64, copy=False)
    h = D.heads[keep].astype(np.int64, copy=False)
    codes, counts = np.unique(
        np.minimum(t, h) * D.n + np.maximum(t, h), return_counts=True
    )
    lo, hi = np.divmod(codes, D.n)
    return np.flatnonzero(inside), lo, hi, counts == 2


def _adjacency(verts, lo: np.ndarray, hi: np.ndarray) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for u, v in zip(lo.tolist(), hi.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _components(n: int, verts: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Components of the graph on verts with edges (lo, hi).

    Returns the component index of every vertex (indexed by vertex; only the
    entries of verts mean anything), the component sizes, and the components
    as sorted vertex tuples, numbered in order of their smallest vertex."""
    label = np.arange(n)
    while True:
        a, b = label[lo], label[hi]
        if np.array_equal(a, b):
            break
        # both ends are roots: hook the larger under the smaller
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
    # a label never exceeds its vertex and roots hook only under smaller
    # roots, so each root is the smallest vertex of its component
    roots = verts[label[verts] == verts]
    rank = np.zeros(n, dtype=np.int64)
    rank[roots] = np.arange(roots.size)
    comp = rank[label]
    of_vert = comp[verts]
    sizes = np.bincount(of_vert, minlength=roots.size)
    members = verts[stable_order(of_vert, roots.size)].tolist()
    ends = np.cumsum(sizes).tolist()
    comps = tuple(tuple(members[s:e]) for s, e in zip([0] + ends[:-1], ends))
    return comp, sizes, comps


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


def _odd_cliques(blocks_with_edges) -> bool:
    """True when every (vertices, edge count) block is an odd complete graph."""
    return all(len(vs) % 2 == 1 and e == len(vs) * (len(vs) - 1) // 2
               for vs, e in blocks_with_edges)


def essential_tight_components(D: Digraph, y) -> TightReport:
    """Classify the components of D[Y]; tau counts the essential tight ones."""
    verts, lo, hi, anti = _undirected(D, y)
    comp, sizes, comps = _components(D.n, verts, lo, hi)
    k = len(comps)
    of_edge = comp[lo]
    edges = np.bincount(of_edge, minlength=k)
    degree = np.bincount(lo, minlength=D.n) + np.bincount(hi, minlength=D.n)
    odd = np.bincount(comp[np.flatnonzero(degree & 1)], minlength=k)
    maybe = (odd == 0) & (sizes % 2 == 1)  # the parity filter
    clique = edges == sizes * (sizes - 1) // 2
    tight = maybe & clique  # the odd-clique shortcut
    left = maybe & ~clique  # only the block DFS decides these
    if left.any():
        sel = left[of_edge]
        adj = _adjacency(verts[left[comp[verts]]].tolist(), lo[sel], hi[sel])
        for c in np.flatnonzero(left).tolist():
            tight[c] = _odd_cliques(_blocks_with_edges(adj, comps[c]))
    essential = tight & (np.bincount(of_edge[anti], minlength=k) == 0)
    return TightReport(
        components=comps,
        tight_flags=tuple(tight.tolist()),
        essential_flags=tuple(essential.tolist()),
        tau=int(np.count_nonzero(essential)),
    )
