"""Exact brute-force references.

Both oracles score every state and report the first optimum in Gray-code
order (step i visits the state i ^ (i >> 1)), so their witnesses are fixed
by the graph alone. They sweep the states in blocks of 2**_BLOCK_BITS: the
objective splits into a table over a block's low bits, built once by
doubling, plus terms that depend on the block's high bits, so a block costs a
few numpy passes and memory stays at one block whatever n is.

They exist to judge the heuristic engine and the gap solver, so they stay
independent of them: they read only n, the arc arrays and the degrees, and
call no arc_census, no incidence() and no engine helper. X is checked where
every part is, by split_masks: a vertex id that is not an integer in
0..n-1 raises PartitionError.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .digraph import Bipartition, Digraph, split_masks
from .errors import EmptyGraphError, TooLargeError

# a block holds 2**_BLOCK_BITS states: a few int64 arrays of 512 KiB each
_BLOCK_BITS = 16


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    witness: Bipartition
    evaluated: int


@dataclass(frozen=True)
class OracleGapResult:
    theta_abs_min: int
    theta: int
    x1: tuple[int, ...]
    x2: tuple[int, ...]
    evaluated: int


def _doubling(weights: list[int]) -> np.ndarray:
    """The sum of weights[j] over the set bits j of s, for every s below
    2**len(weights)."""
    table = np.zeros(1 << len(weights), dtype=np.int64)
    for j, w in enumerate(weights):
        table[1 << j:2 << j] = table[:1 << j] + w
    return table


def _gray_blocks(bits: int) -> Iterator[tuple[int, np.ndarray]]:
    """The blocks of the Gray-code walk over the states below 2**bits, in
    step order, as (high, order).

    With L = min(bits, _BLOCK_BITS), block b covers the steps from b << L on.
    All its states share the high part s >> L = gray(b), and order[t] is the
    low part of the state at step (b << L) + t: gray(t), with bit L - 1
    flipped in odd blocks."""
    low_bits = min(bits, _BLOCK_BITS)
    t = np.arange(1 << low_bits)
    gray = t ^ (t >> 1)
    orders = (gray, gray ^ ((1 << low_bits) >> 1))
    for b in range(1 << (bits - low_bits)):
        yield b ^ (b >> 1), orders[b & 1]


def _sides(n: int, state: int) -> Bipartition:
    """Vertex 0 on side 1; vertex j + 1 on side 2 when bit j of state is set."""
    return Bipartition([1] + [2 if state >> j & 1 else 1 for j in range(n - 1)])


def exact_max_min_cut(D: Digraph, limit: int = 24) -> OracleResult:
    """Maximize min(e12, e21) over all bipartitions by exhaustive scan.

    Vertex 0 is pinned to side 1: swapping sides swaps e12 and e21, so the
    objective is unchanged and half the state space suffices. Bit j of a
    state puts vertex j + 1 on side 2. With S the side-2 set,
    e12 = indeg(S) - e(S, S) and e21 = outdeg(S) - e(S, S); a block's low
    and high vertices each add their own such term, less the arcs between
    them. The witness is the first optimum reached in Gray-code order.
    """
    if D.n == 0:
        raise EmptyGraphError("cannot bipartition an empty graph")
    if D.n > limit:
        raise TooLargeError(f"n={D.n} exceeds oracle limit {limit}")
    n = D.n
    bits = n - 1
    low_bits = min(bits, _BLOCK_BITS)
    indeg, outdeg = D.in_degrees.tolist(), D.out_degrees.tolist()
    # the state bits of each vertex's out- and in-neighbours; vertex 0 has none
    bit = [0] + [1 << j for j in range(bits)]
    out_nb, in_nb = [0] * n, [0] * n
    for t, h in zip(D.tails.tolist(), D.heads.tolist()):
        out_nb[t] |= bit[h]
        in_nb[h] |= bit[t]
    low_mask = (1 << low_bits) - 1
    states = np.arange(1 << low_bits)
    popcount = _doubling([1] * low_bits)  # set bits of every low state
    # (e12, e21) of every low state with the high part empty, by doubling:
    # moving v to side 2 adds indeg(v) and outdeg(v), less its arcs to side 2
    low12 = np.zeros(1 << low_bits, dtype=np.int64)
    low21 = np.zeros(1 << low_bits, dtype=np.int64)
    for j in range(low_bits):
        v, s = j + 1, states[:1 << j]
        joined = popcount[s & (out_nb[v] & low_mask)] + popcount[s & (in_nb[v] & low_mask)]
        low12[1 << j:2 << j] = low12[:1 << j] + (indeg[v] - joined)
        low21[1 << j:2 << j] = low21[:1 << j] + (outdeg[v] - joined)
    best, best_state = -1, 0
    for high, order in _gray_blocks(bits):
        high_state = high << low_bits
        hs = [v for v in range(low_bits + 1, n) if high_state & bit[v]]
        inner = sum((out_nb[v] & high_state).bit_count() for v in hs)
        base12 = sum(indeg[v] for v in hs) - inner
        base21 = sum(outdeg[v] for v in hs) - inner
        # the arcs between the side-2 low vertices and the high ones
        cross = _doubling([(out_nb[v] & high_state).bit_count()
                           + (in_nb[v] & high_state).bit_count()
                           for v in range(1, low_bits + 1)])
        value = np.minimum(low12 + base12, low21 + base21)
        value -= cross
        top = int(value.max())
        if top > best:
            t = int(np.argmax(value[order]))
            best, best_state = top, int(order[t]) | high_state
    return OracleResult(optimum=best, witness=_sides(n, best_state),
                        evaluated=1 << bits)


def exact_min_gap(D: Digraph, x, limit: int = 24) -> OracleGapResult:
    """Minimize |gap| over all 2^|X| partitions of X by exhaustive scan.

    The gap of (x1, x2) is (e(x1,Y) + e(Y,x2)) - (e(x2,Y) + e(Y,x1)) with
    Y = V - X. With w(v) = e(v,Y) - e(Y,v) it is 2 w(x1) - w(X), linear in
    the bits of a state (bit j puts the j-th smallest vertex of X in x1), so
    a block is a table over its low bits plus one offset. Witness: first
    optimum in Gray-code order over X sorted ascending.
    """
    (inside,) = split_masks(D.n, [x], "X")
    xs = np.flatnonzero(inside).tolist()
    k = len(xs)
    if k > limit:
        raise TooLargeError(f"|X|={k} exceeds oracle limit {limit}")
    to_y = inside[D.tails] & ~inside[D.heads]
    from_y = ~inside[D.tails] & inside[D.heads]
    w = (np.bincount(D.tails[to_y], minlength=D.n)
         - np.bincount(D.heads[from_y], minlength=D.n))[xs].tolist()
    low_bits = min(k, _BLOCK_BITS)
    low = _doubling([2 * wj for wj in w[:low_bits]]) - sum(w)  # the high part in x2
    best, best_state = None, 0
    for high, order in _gray_blocks(k):
        key = np.abs(low + sum(2 * wj for j, wj in enumerate(w[low_bits:]) if high >> j & 1))
        top = int(key.min())
        if best is None or top < best:
            t = int(np.argmin(key[order]))
            best, best_state = top, int(order[t]) | high << low_bits
    x1 = tuple(v for j, v in enumerate(xs) if best_state >> j & 1)
    x2 = tuple(v for j, v in enumerate(xs) if not best_state >> j & 1)
    theta = sum(w[j] if best_state >> j & 1 else -w[j] for j in range(k))
    return OracleGapResult(
        theta_abs_min=best,
        theta=theta,
        x1=x1,
        x2=x2,
        evaluated=1 << k,
    )
