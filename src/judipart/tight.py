"""Tight components of the digraph induced on Y = V - X.

Work happens on the underlying undirected graph of D[Y]: anti-parallel arc
pairs collapse to a single undirected edge. A connected component is *tight*
when every biconnected block of it is a complete graph on an odd number of
vertices (isolated vertices and single vertices count, a lone edge K2 does
not). A tight component is *essential* when none of its undirected edges came
from an anti-parallel pair, i.e. the component's arcs inside Y are one-way.
tau(Y), the number of essential tight components, is the quantity the
lower-bound certificates consume.

essential_tight_components takes X, like every entry point, and counts tau at
once over the good vertices: those of Y with an even number of arcs to Y
(arc_census), as every vertex of an essential tight component is (even degree,
no anti-parallel pair). The count labels the graph on the good vertices alone;
a good vertex with an arc to Y outside it is dead, so is every component with
a dead vertex, and the live ones are whole components of D[Y]. On a random
graph half of Y is not good and nearly every component dies. The report
classifies all of D[Y] only when a field is first read (to_jsonable reads them
all); partition and certify read tau alone. One numpy pass, _classify, serves
both:

- Components are labelled by their smallest vertex: across every arc whose
  ends have different roots the larger root hooks under the smaller one
  (np.minimum.at), then pointer jumping takes every label to its root, until
  no arc joins two roots (Shiloach and Vishkin 1982).
- The arcs of the live components collapse to sorted undirected codes
  lo * n + hi with np.unique; a code seen twice is an anti-parallel pair.
- bincounts per component give its size, edge count, odd-degree vertices and
  anti-parallel pairs. The report keeps arrays; only to_jsonable lists members.

Two lemmas settle most components without a DFS. In a tight component every
block is an odd clique K_q, so every degree is a sum of even terms q - 1, and
the vertex count 1 + sum(q - 1) over the blocks is odd. So a component with an
odd-degree vertex or an even vertex count is not tight (parity filter). And a
component on an odd number q of vertices with q(q - 1)/2 edges is one odd
clique, so it is tight (odd-clique shortcut); a single vertex is one. Only the
components that neither rule settles reach the block DFS, the edge-stack DFS
of Hopcroft and Tarjan (1973), on an adjacency built for their vertices only.
It answers yes or no, judging each block as it comes off the edge stack and
stopping at the first one that is not an odd clique. The DFS is iterative so
that hundred-thousand-vertex components do not hit the recursion limit. It is
the module's only classifier.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .digraph import Digraph, arc_census, split_masks


@dataclass(frozen=True, eq=False)
class TightReport:
    """tau, and on first read: components[c], component c's smallest vertex,
    ascending; component_of[v], the index of v's component, -1 for v in X; the
    flags, bool arrays over the components."""
    tau: int
    graph: Digraph = field(repr=False)
    inside: np.ndarray = field(repr=False)

    @cached_property
    def _classes(self) -> tuple[np.ndarray, ...]:
        return _classify(self.graph.n, self.inside, *_arcs_within(self.graph, self.inside))

    components = property(lambda self: self._classes[0])
    component_of = property(lambda self: self._classes[1])
    tight_flags = property(lambda self: self._classes[2])
    essential_flags = property(lambda self: self._classes[3])

    def to_jsonable(self) -> dict:
        """The tight record: tau, each component's sorted members, the flags."""
        of = self.component_of
        verts = np.flatnonzero(of >= 0)
        members = verts[np.argsort(of[verts], kind="stable")].tolist()
        ends = np.cumsum(np.bincount(of[verts], minlength=self.components.size))
        return {
            "tau": self.tau,
            "components": [members[s:e] for s, e in zip([0, *ends[:-1]], ends)],
            "tight": self.tight_flags.tolist(),
            "essential": self.essential_flags.tolist(),
        }


def _arcs_within(D: Digraph, within: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads, as int64, of the arcs with both ends marked by within."""
    keep = within[D.tails] & within[D.heads]
    return tuple(a.compress(keep).astype(np.int64, copy=False) for a in (D.tails, D.heads))


def _adjacency(verts, lo: np.ndarray, hi: np.ndarray) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for u, v in zip(lo.tolist(), hi.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _components(n: int, verts: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Components of the graph on verts with edges (lo, hi), numbered in order
    of their smallest vertex: those smallest vertices, ascending, and the
    component index of every vertex, -1 off verts."""
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
    # roots, so each root is the smallest vertex of its component; a vertex
    # off verts touches no edge, so its label is itself, ranked -1
    roots = verts[label[verts] == verts]
    rank = np.full(n, -1, dtype=np.int64)
    rank[roots] = np.arange(roots.size)
    return roots, rank[label]


def _blocks_are_odd_cliques(adj: dict[int, list[int]], root: int) -> bool:
    """Whether every biconnected block of root's component, which has an
    edge, is an odd clique. Each block is judged as it comes off the edge
    stack, and the DFS stops at the first one that is not."""
    disc = {root: 0}
    low = {root: 0}
    edge_stack: list[tuple[int, int]] = []
    at: dict[int, int] = {}  # where the tree edge into a vertex sits on edge_stack
    # frames: (vertex, parent, iterator over neighbors)
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
                disc[v] = low[v] = len(disc)  # discovery order
                at[v] = len(edge_stack)
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
                # u's tree edge and every edge above it form one block
                block = edge_stack[at[u]:]
                del edge_stack[at[u]:]
                q = len({w for e in block for w in e})
                if q % 2 == 0 or len(block) != q * (q - 1) // 2:
                    return False
    return True


def _classify(n: int, within: np.ndarray, t: np.ndarray, h: np.ndarray,
              dead: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The components of the graph on within with arcs (t, h): their smallest
    vertices, the component of every vertex (-1 off within), the tight and
    essential flags. One with a vertex marked by dead is left not tight."""
    verts = np.flatnonzero(within)
    roots, comp = _components(n, verts, t, h)
    k = roots.size
    live = np.ones(k, dtype=bool)
    if dead is not None:
        live[comp[np.flatnonzero(dead)]] = False
        keep = live[comp[t]]
        t, h = t.compress(keep), h.compress(keep)
    codes, counts = np.unique(np.minimum(t, h) * n + np.maximum(t, h), return_counts=True)
    lo, hi = np.divmod(codes, n)
    sizes = np.bincount(comp[verts], minlength=k)
    of_edge = comp[lo]
    edges = np.bincount(of_edge, minlength=k)
    degree = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    odd = np.bincount(comp[np.flatnonzero(degree & 1)], minlength=k)
    maybe = live & (odd == 0) & (sizes % 2 == 1)  # the parity filter
    clique = edges == sizes * (sizes - 1) // 2
    tight = maybe & clique  # the odd-clique shortcut
    left = maybe & ~clique  # only the block DFS decides these
    if left.any():
        sel = left[of_edge]
        adj = _adjacency(verts[left[comp[verts]]].tolist(), lo[sel], hi[sel])
        for c, root in zip(np.flatnonzero(left).tolist(), roots[left].tolist()):
            tight[c] = _blocks_are_odd_cliques(adj, root)
    essential = tight & (np.bincount(of_edge[counts == 2], minlength=k) == 0)
    return roots, comp, tight, essential


def essential_tight_components(D: Digraph, x) -> TightReport:
    """The report on the components of D[Y], Y = V - X, with tau, the number
    of essential tight ones, counted over the good vertices alone."""
    inside = ~split_masks(D.n, [x], "X")[0]
    ydeg = np.add(*arc_census(D, inside))
    good = inside & ((ydeg & 1) == 0)
    t, h = _arcs_within(D, good)
    dead = None
    if np.count_nonzero(good) < np.count_nonzero(inside):
        # a good vertex with fewer arcs to good vertices than to Y has an arc
        # to a vertex of Y that is not good; an arc between two such dead
        # vertices can only join components that die anyway
        dead = good & (np.bincount(t, minlength=D.n) + np.bincount(h, minlength=D.n) < ydeg)
        keep = ~(dead[t] & dead[h])
        t, h = t.compress(keep), h.compress(keep)
    tau = int(np.count_nonzero(_classify(D.n, good, t, h, dead)[3]))
    return TightReport(tau, D, inside)
