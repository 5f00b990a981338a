"""Shared test utilities: corpora and naive reference implementations.

The naive checkers here are deliberately independent of the package
internals: brute-force enumeration only, no shared code paths beyond the
Digraph container itself. The references below are the earlier, plainer
versions of the random-graph generator, the trial draws, the search kernels
(single flips and the pair escape), the min-gap subset-sum and the candidate
X-partitions; the fast versions must reproduce them number for number.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from zlib import crc32

import numpy as np

from judipart import (
    Bipartition,
    CandidateXPartition,
    Digraph,
    EngineConfig,
    cut_counts,
    e_between,
    from_arc_list,
    gen_eulerian_complete,
    gen_random_minout,
    gen_skew_d4,
    gen_skew_d6,
    gen_star_triangle,
    gen_tight_union,
    min_gap_partition,
    mingap_candidate,
)

# The candidate labels in the row order of the engine's candidate table,
# which is also the order _dedupe keeps the first of.
CANDIDATE_ORDER = ("MINGAP", "X1FWD", "X2SIGN", "X3SIGN", "X4", "X5", "SINGLE-HUGE")


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


def hub_digraph(n: int, hubs: int, seed: int):
    """Outdegree-4 digraph whose first `hubs` vertices are fed by most of the
    rest: each non-hub sends one arc to a random hub with probability 0.9, and
    every vertex sends its remaining arcs to random non-hubs."""
    rng = random.Random(seed)
    arcs = []
    for v in range(n):
        outs = []
        if v >= hubs and rng.random() < 0.9:
            outs.append(rng.randrange(hubs))
        while len(outs) < 4:
            u = rng.randrange(hubs, n)
            if u != v and u not in outs:
                outs.append(u)
        arcs.extend((v, u) for u in outs)
    return from_arc_list(n, arcs)


def hub_candidate_corpus(seeds: int = 100):
    """(D, gap result, config) over hub graphs with n = 20..120 and 1..7 hubs:
    X = the hubs, and the hubs plus two more vertices, each at d = 3, 4, 5."""
    out = []
    for seed in range(seeds):
        rng = random.Random(seed)
        n, hubs = rng.randint(20, 120), rng.randint(1, 7)
        D = hub_digraph(n, hubs, seed)
        extra = rng.sample(range(hubs, n), 2)
        for xs in (range(hubs), [*range(hubs), *extra]):
            gr = min_gap_partition(D, xs)
            out.extend((D, gr, EngineConfig(d=d)) for d in (3, 4, 5))
    return out


# --- the candidate X-partitions, one placement call per candidate -----------

def _reference_splus(D: Digraph, v: int) -> int:
    return int(D.out_degrees[v] - D.in_degrees[v])


def _reference_place(D: Digraph, forward, backward, literal_x1=()) -> tuple[tuple, tuple]:
    x1, x2 = set(literal_x1), set()
    for v in forward:
        (x1 if _reference_splus(D, v) > 0 else x2).add(v)
    for v in backward:
        (x1 if _reference_splus(D, v) < 0 else x2).add(v)
    return tuple(sorted(x1)), tuple(sorted(x2))


def reference_candidate_x_partitions(D: Digraph, gr, cfg) -> list[CandidateXPartition]:
    """The candidates with each vertex placed "forward" (side 1 when
    splus > 0), "backward" (side 1 when splus < 0) or literally on side 1,
    one _reference_splus per vertex."""
    huge, k = gr.huge, gr.k
    out = [mingap_candidate(gr)]
    if k is None:
        return out
    nonhuge = tuple(sorted(set(gr.x) - set(huge)))
    d = cfg.d
    p_sign = Fraction(d - 1, 2 * d)

    fw = huge[:k] + nonhuge
    bw = huge[k:]
    out.append(CandidateXPartition("X1FWD", *_reference_place(D, fw, bw), Fraction(1, 2)))

    if k >= 1:
        window = huge[: 2 * k - 1]
        nonneg = [v for v in window if _reference_splus(D, v) >= 0]
        negs = [v for v in window if _reference_splus(D, v) < 0]
        sel = tuple((nonneg if len(nonneg) >= k else negs)[:k])
        rest = tuple(v for v in huge if v not in set(sel))
        out.append(
            CandidateXPartition("X2SIGN", *_reference_place(D, sel + nonhuge, rest), p_sign)
        )
        x1, x2 = _reference_place(D, (), rest, literal_x1=sel + nonhuge)
        out.append(CandidateXPartition("X3SIGN", x1, x2, p_sign))

    if d == 4 and k == 1:
        p4 = Fraction(5, 14)
        out.append(
            CandidateXPartition("X4", *_reference_place(D, (huge[0],) + nonhuge, huge[1:]), p4)
        )
        to_y, from_y = gr.y_census
        balanced = np.minimum(to_y, from_y)[list(huge)].tolist()
        vi = huge[max(range(len(huge)), key=lambda i: (balanced[i], -i))]
        restv = tuple(v for v in huge if v != vi)
        x1, x2 = _reference_place(D, (), restv, literal_x1=(vi,) + nonhuge)
        out.append(CandidateXPartition("X5", x1, x2, p4))

    if len(huge) == 1:
        x1, x2 = _reference_place(D, (huge[0],), nonhuge)
        out.append(CandidateXPartition("SINGLE-HUGE", x1, x2, Fraction(1, 2)))
    return _reference_dedupe(out)


def _reference_dedupe(cands: list[CandidateXPartition]) -> list[CandidateXPartition]:
    """The first candidate per (x1, p), in order."""
    first: dict = {}
    for c in cands:
        first.setdefault((c.x1, c.p), c)
    return list(first.values())


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


def naive_tight_report(D: Digraph, ys) -> dict:
    """The tight record (TightReport.to_jsonable) of D[ys] by brute force."""
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
    return {"tau": sum(essential), "components": [list(c) for c in comps],
            "tight": tight, "essential": essential}


def complement(n: int, vs) -> list[int]:
    """V - vs, ascending: the X whose Y is vs."""
    vs = set(vs)
    return [v for v in range(n) if v not in vs]


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


def reference_trial_matrix(label: str, p: Fraction, ysize: int, cfg) -> np.ndarray:
    """The trials x ysize assignment matrix, lane by lane, from the raw words
    of the candidate's one stream, PCG64(SeedSequence((cfg.seed,
    crc32(label)))). p's binary digits come one Fraction doubling at a time,
    53 of them, trailing zeros dropped.

    Each block of 64 trials (lanes) starts with all its 64 x ysize lanes
    undecided and, digit by digit, reads ysize raw words, Y vertex i's word
    at index i. An undecided lane (i, t) whose bit t is 0 is decided: side 1
    when the digit is 1. The block reads no more once no lane is undecided or
    the digits run out; undecided lanes are then side 2. p = 1 reads nothing
    and puts every lane on side 1."""
    bitgen = np.random.PCG64(np.random.SeedSequence((cfg.seed, crc32(label.encode("utf-8")))))
    side1 = np.full((cfg.trials, ysize), p == 1)
    digits, rest = [], Fraction(p) % 1
    for _ in range(53):
        rest *= 2
        digits.append(rest >= 1)
        rest -= digits[-1]
    while digits and not digits[-1]:
        digits.pop()
    for first in range(0, cfg.trials, 64) if digits else ():
        undecided = [(i, t) for i in range(ysize) for t in range(64)]
        for digit in digits:
            if not undecided:
                break
            row = bitgen.random_raw(ysize).tolist()
            still = []
            for i, t in undecided:
                if row[i] >> t & 1:
                    still.append((i, t))
                elif digit and first + t < cfg.trials:
                    side1[first + t, i] = True
            undecided = still
    return side1


def unpack_trial_words(words: np.ndarray, trials: int) -> np.ndarray:
    """The trials x |Y| boolean matrix that words (|Y| x ceil(trials / 64)
    uint64, trial t at bit t % 64 of column t // 64) packs, one trial at a
    time by shift and mask."""
    return np.array([(words[:, t // 64] >> np.uint64(t % 64)) & np.uint64(1) == 1
                     for t in range(trials)], dtype=bool)


def reference_bit_counts(x: np.ndarray) -> np.ndarray:
    """Per row of the uint64 words x (r x L), how many words have bit b set,
    b = 0..63, one bit at a time by shift and mask."""
    return np.array([[int(((row >> np.uint64(b)) & np.uint64(1)).sum()) for b in range(64)]
                     for row in x], dtype=np.int64)


def reference_extension_trial_cuts(D: Digraph, cand, cfg):
    """Per-trial (e12, e21) and the trial matrix over Y = V - x1 - x2, by
    gathering every arc's columns out of the trials x |Y| matrix."""
    side1x = np.zeros(D.n, dtype=bool)
    side1x[list(cand.x1)] = True
    in_y = np.ones(D.n, dtype=bool)
    in_y[list(cand.x1) + list(cand.x2)] = False
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
    A = reference_trial_matrix(cand.label, cand.p, len(ys), cfg)
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


def reference_local_improve(D: Digraph, P: Bipartition):
    """Batched single-vertex flips over plain ints and sets, cuts recounted
    arc by arc. Each round screens the vertices whose flip alone raises
    (min, total), ranks them by (new min, new total) descending and then by
    index, keeps a screened vertex when no screened neighbour ranks above it,
    and flips the first prefix of the kept vertices, in rank order, with the
    best summed (min, total). Stops when nothing is screened.

    Asserts that each round's flips are pairwise non-adjacent, that the
    summed deltas equal the recounted cut, and that the round strictly
    raises (min, total). Returns the bipartition and the running (e12, e21)."""
    def key(e12, e21):
        return min(e12, e21), e12 + e21

    arcs = arc_list(D)
    nbrs = [set() for _ in range(D.n)]
    for u, v in arcs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    on1 = (P.sides == 1).tolist()

    def cut():
        return (sum(on1[u] and not on1[v] for u, v in arcs),
                sum(on1[v] and not on1[u] for u, v in arcs))

    def flip_cuts():
        """(e12, e21) after flipping each vertex alone: an arc's cut status
        changes only when one of its ends flips."""
        out = [[e12, e21] for _ in range(D.n)]
        for u, v in arcs:
            a, b = on1[u], on1[v]
            now = (a and not b, b and not a)
            for w, (x, y) in ((u, (not a, b)), (v, (a, not b))):
                out[w][0] += (x and not y) - now[0]
                out[w][1] += (y and not x) - now[1]
        return out

    e12, e21 = cut()
    while True:
        here = key(e12, e21)
        after = flip_cuts()
        new = {w: key(*after[w]) for w in range(D.n) if key(*after[w]) > here}
        if not new:
            return Bipartition([1 if s else 2 for s in on1]), (e12, e21)
        ranked = sorted(new, key=lambda w: (-new[w][0], -new[w][1], w))
        rank = {w: i for i, w in enumerate(ranked)}
        kept = [w for w in ranked if all(rank.get(u, len(ranked)) > rank[w] for u in nbrs[w])]
        prefixes, s12, s21 = [], e12, e21
        for w in kept:
            s12 += after[w][0] - e12
            s21 += after[w][1] - e21
            prefixes.append((s12, s21))
        best = max(range(len(kept)), key=lambda i: (key(*prefixes[i]), -i))
        flips = kept[:best + 1]
        assert not any(nbrs[w] & set(flips) for w in flips)
        for w in flips:
            on1[w] = not on1[w]
        assert cut() == prefixes[best]
        assert key(*prefixes[best]) > here
        e12, e21 = prefixes[best]


def reference_pair_escape(D: Digraph, P: Bipartition):
    """Two-vertex flips by brute force: flip the first pair u < v, in
    row-major order, whose two flips raise (min, total) as cut_counts
    recounts it, polish with reference_local_improve, and repeat until no
    pair raises. Returns the bipartition and the moves, each as
    ((u, v), (min, total) before, (min, total) after the pair's flips)."""
    def key(sides):
        c = cut_counts(D, Bipartition(sides))
        return c.minval, c.e12 + c.e21

    sides, moves = P.sides.copy(), []
    while True:
        here = key(sides)
        for u, v in itertools.combinations(range(D.n), 2):
            trial = sides.copy()
            trial[[u, v]] = 3 - trial[[u, v]]
            if key(trial) > here:
                moves.append(((u, v), here, key(trial)))
                sides = reference_local_improve(D, Bipartition(trial))[0].sides.copy()
                break
        else:
            return Bipartition(sides), moves


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



def reference_dp_min_gap(xs, values):
    """The min-gap subset-sum with every suffix bitset kept (items x span
    bits) and the nearest sum found by scanning all set bits; returns
    (chosen x1 vertices, theta) under the same tie rule: prefer x2 in index
    order."""
    items = [(v, val) for v, val in zip(xs, values) if val != 0]
    total = sum(val for _, val in items)
    if not items:
        return [], 0
    neg = sum(val for _, val in items if val < 0)
    pos = sum(val for _, val in items if val > 0)
    span = pos - neg  # sum of |values|
    offset = -neg
    # suffix[i] = bitmask of sums attainable from items[i:], bit = sum + offset
    suffix = [0] * (len(items) + 1)
    suffix[len(items)] = 1 << offset
    for i in range(len(items) - 1, -1, -1):
        val = items[i][1]
        prev = suffix[i + 1]
        suffix[i] = prev | (prev << val if val > 0 else prev >> -val)
    raw = np.frombuffer(suffix[0].to_bytes((span + 8) // 8, "little"), dtype=np.uint8)
    positions = np.flatnonzero(np.unpackbits(raw, bitorder="little"))
    sigmas = positions.astype(np.int64) - offset
    devs = np.abs(2 * sigmas - total)
    theta_abs = int(devs.min())
    targets = {s for s in ((total + theta_abs) // 2, (total - theta_abs) // 2)
               if 0 <= s + offset <= span and (suffix[0] >> (s + offset)) & 1}
    # lexicographic reconstruction: prefer x2 (exclusion) in index order
    chosen = []
    partial = 0
    for i, (v, val) in enumerate(items):
        can_exclude = False
        for s in targets:
            rest = s - partial
            p = rest + offset
            if 0 <= p <= span and (suffix[i + 1] >> p) & 1:
                can_exclude = True
                break
        if not can_exclude:
            chosen.append(v)
            partial += val
    if partial not in targets:
        raise AssertionError("subset-sum reconstruction drifted")
    return chosen, 2 * partial - total


def reference_max_min_cut(D: Digraph):
    """The exhaustive max-min cut as one Gray-code walk: one vertex move per
    step, (e12, e21) updated from the moved vertex's neighbours, whose
    bitmasks come from the arc list alone. Vertex 0 stays on side 1; the
    witness is the first optimum in walk order. Returns (optimum, witness,
    evaluated)."""
    n = D.n
    out_mask, in_mask = [0] * n, [0] * n
    for u, v in zip(D.tails.tolist(), D.heads.tolist()):
        out_mask[u] |= 1 << v
        in_mask[v] |= 1 << u
    side1 = (1 << n) - 1  # bit v set: v on side 1
    e12 = e21 = 0
    best = 0
    best_sides = side1
    total = 1 << (n - 1)
    for i in range(1, total):
        v = (i & -i).bit_length()
        out1 = (out_mask[v] & side1).bit_count()
        in1 = (in_mask[v] & side1).bit_count()
        out2 = out_mask[v].bit_count() - out1
        in2 = in_mask[v].bit_count() - in1
        if side1 >> v & 1:
            e12 += in1 - out2
            e21 += out1 - in2
        else:
            e12 += out2 - in1
            e21 += in2 - out1
        side1 ^= 1 << v
        if min(e12, e21) > best:
            best = min(e12, e21)
            best_sides = side1
    return best, Bipartition([2 - (best_sides >> v & 1) for v in range(n)]), total


def reference_min_gap(D: Digraph, x):
    """The exhaustive min |gap| over partitions of X as one Gray-code walk
    over X sorted ascending, each vertex's Y-imbalance taken from e_between.
    Returns (theta_abs_min, theta, x1, x2, evaluated) for the first optimum
    in walk order."""
    xs = sorted(set(x))
    ys = complement(D.n, xs)
    k = len(xs)
    w = [e_between(D, [v], ys) - e_between(D, ys, [v]) for v in xs]
    in_x1 = [False] * k
    sigma = -sum(w)  # all of X on side x2
    best_sigma = sigma
    best_mask = in_x1.copy()
    for i in range(1, 1 << k):
        j = (i & -i).bit_length() - 1
        sigma += (2 * w[j]) * (-1 if in_x1[j] else 1)
        in_x1[j] = not in_x1[j]
        if abs(sigma) < abs(best_sigma):
            best_sigma = sigma
            best_mask = in_x1.copy()
    x1 = tuple(v for v, inside in zip(xs, best_mask) if inside)
    x2 = tuple(v for v, inside in zip(xs, best_mask) if not inside)
    return abs(best_sigma), best_sigma, x1, x2, 1 << k


# --- the certificate's inequalities, written out by hand --------------------

def reference_check_sides(bundle, ysize: int) -> dict[str, tuple[Fraction, str, Fraction]]:
    """(lhs, comparison, rhs) of every arithmetic check in its regime, each
    side written as Python by hand: the formulas the certificate carried
    before it computed both sides from the printed statement. Decimals are
    exact (Fraction("2.31")), delta_j is the j-th huge vertex's imbalance
    (1-based) and t = 2*delta_1 - delta_2 - delta_3."""
    F = Fraction
    n, m, m2, g, b = bundle.n, bundle.m, bundle.m2, bundle.g, bundle.b
    theta, tau, d, k, deltas = bundle.theta, bundle.tau, bundle.d, bundle.k, bundle.deltas
    hc = len(deltas)
    sides = {}

    def put(check_id, lhs, comparison, rhs):
        sides[check_id] = (F(lhs), comparison, F(rhs))

    if bundle.e_x == 0:
        put("gap-le-ysize", theta, "<=", ysize)
        put("residual-le-slack", g, "<=", ysize - theta)
    put("gap-above-ratio", theta, ">", F(m, 2 * d - 1))
    if k is not None:
        lead, tail = sum(deltas[:k]), sum(deltas[k:])
        put("tail-dominance", tail - lead, ">=", g + theta)
    if k is not None and hc == 2 * k + 1:
        put("form1-neg", d * (lead + g) - (d - 1) * tail + b + F(m2, 2), "<", 0)
        s_mid = sum(deltas[k - 1: 2 * k - 1])
        s_out = lead + tail - s_mid
        if d >= 2:
            put("form2-lower", b, ">",
                F(d * d + 2 * d - 1, d - 1) * s_mid - d * s_out
                + (d - 1) * g + F(d - 1, 2 * d) * m2)
        put("form3-upper", b, "<",
            F(2 * (2 * d - 1) * (k + 1), 3 * d - 1) * n
            + F(d * d - 5 * d + 2, 3 * d - 1) * s_out
            - F(d * d + 2 * d - 1, 3 * d - 1) * s_mid
            + F(d * (d - 1), 3 * d - 1) * g
            - F((d - 1) ** 2, 2 * d * (3 * d - 1)) * m2)
        if d == 4 and k == 1:
            d1, d2, d3 = (F(x) for x in deltas)
            put("d4k1-alt-a", 2 * d2 + 2 * d3 - 3 * d1 - 3 * g - b + F(3 * m2, 14), "<", 0)
            put("d4k1-alt-b1", 6 * d1 - 3 * d2 - 3 * d3 + 2 * g - b + F(3 * m2, 14), "<", 0)
            put("d4k1-alt-b2",
                6 * d3 - 3 * d1 - 3 * d2 - 3 * g + F(b, 3) + F(3 * m2, 14), "<", 0)
            put("d4k1-tau-bound", b, "<",
                3 * d2 + 3 * d3 - 4 * d1 - 4 * g - F(m2, 2) - F(7 * (n - tau), 4))
    put("huge-ge-d", hc, ">=", d)
    put("huge-single", hc, "==", 1)
    if 2 * d - 2 * hc + 1 > 0:
        put("tau-bound", tau, "<=", F(n + 2 * g + 2 * b, 2 * d - 2 * hc + 1))
    if d == 4 and hc == 3:
        d1, d2, d3 = (F(x) for x in deltas)
        t = 2 * d1 - d2 - d3
        slack = F(1, 1000)
        put("chain-01", b, ">=", 4 * n - 3 * d1 - g - m2 + t)
        put("chain-02", b, ">", 7 * n + 3 * m2 + 17 * g - 12 * d1 + 18 * t)
        put("chain-03", b, ">", 3 * g + F(3, 8) * m2 - F(1, 3) * d1 + 4 * t)
        put("chain-04", b, "<",
            F(28, 11) * n - F(27, 11) * d1 + F(12, 11) * g - F(9, 88) * m2 + F(2, 11) * t)
        put("chain-05", F(79, 8) * m2 + 23 * g, ">", 16 * n - 6 * d1 + 9 * t)
        put("chain-05-slack", F(79, 8) * m2 + 23 * g, ">", 16 * n - 6 * d1 + 9 * t - slack * n)
        put("chain-06", F(273, 8) * m2 + 175 * g, "<", 105 * d1 - 49 * n - 196 * t)
        put("chain-07", F(63, 4) * m2 + 63 * g, "<", 84 * n - 70 * d1 - 126 * t)
        put("chain-08", m2 + F("2.31") * g, ">", n)
        put("chain-09", F("1.806") * t + F("0.759") * g, "<", d1 - F("0.829") * n)
        put("chain-10", F("2.322") * t + F("0.435") * g, "<", F("0.968") * n - d1)
        put("chain-11", d1, ">", F("0.829") * n)
        put("chain-12", 3 * t + g, "<", F("0.117") * n)
        put("chain-13", b, "<", F("0.564") * n)
        put("chain-14", b, ">", F(3, 14) * m2 + 2 * g + 3 * t)
        put("chain-15", F("1.373") * t + F("0.075") * g, "<", F("0.899") * n - d1)
        put("chain-16", g + b + m2, ">", F("1.3") * n)
        put("chain-17", 3 * t + g, "<", F("0.084") * n)
    return sides
