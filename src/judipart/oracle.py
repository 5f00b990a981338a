"""Exact brute-force references.

Both oracles score every state and report the first optimum in Gray-code
order (step i visits the state i ^ (i >> 1)), so their witnesses are fixed
by the graph alone. They sweep the states in blocks of 2**_BLOCK_BITS: the
objective splits into tables over a block's low bits, built once per call
by doubling, plus terms that depend on the block's high bits. Consecutive
blocks differ in one high vertex, so the next block's terms are the last
block's updated by that vertex's own table over the low bits.

Every table holds its values in the narrowest signed dtype that fits the
sweep's bound (_signed_dtype): 2m for the max-min cut, int16 or narrower
for every n up to the default limit, and 2 sum|w| for the min gap, taken
from the data because X may sit in a large graph. The tables that every
sweep of one block width shares (set-bit counts, the low states and the two
Gray orders) are built once per width and kept read-only (_block_tables).
Each block is scored into buffers allocated once per call: a 2**16-entry
int64 temporary per pass would sit above glibc's 128 KiB mmap threshold and
cost page faults. At 16 bits and int16 a max-min-cut block is six passes
over 128 KiB (cross update, two adds, minimum, subtract, max), about 30 us
on a 2-core Xeon VM (n = 28: 2048 blocks in 64 ms); a min-gap block is
three (add, abs, min). Memory is one block per table, plus one table per
high vertex, whatever n is.

They exist to judge the heuristic engine and the gap solver, so they stay
independent of them: they read only n, the arc arrays and the degrees, and
call no arc_census, no incidence() and no engine helper. X is checked where
every part is, by split_masks: a vertex id that is not an integer in
0..n-1 raises PartitionError.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .digraph import Bipartition, Digraph, split_masks
from .errors import EmptyGraphError, TooLargeError

# a block holds 2**_BLOCK_BITS states
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


def _signed_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype holding every value in
    -bound..bound."""
    return np.min_scalar_type(-bound - 1)


def _doubling(weights: list[int], dtype) -> np.ndarray:
    """The sum of weights[j] over the set bits j of s, for every s below
    2**len(weights)."""
    table = np.zeros(1 << len(weights), dtype)
    for j, w in enumerate(weights):
        np.add(table[:1 << j], w, out=table[1 << j:2 << j])
    return table


@functools.cache
def _block_tables(low_bits: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """(popcount, states, orders) for blocks of 2**low_bits states, read-only
    because every call with this width shares them: the set bits of every
    low state (int8), the low states 0..2**low_bits - 1, and the low part of
    the state at each step of an even and of an odd block (see
    _gray_blocks)."""
    states = np.arange(1 << low_bits)
    popcount = _doubling([1] * low_bits, np.int8)
    gray = states ^ (states >> 1)
    orders = (gray, gray ^ ((1 << low_bits) >> 1))
    for table in (popcount, states, *orders):
        table.setflags(write=False)
    return popcount, states, orders


def _gray_blocks(bits: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """The blocks of the Gray-code walk over the states below 2**bits, in
    step order, as (high, flip, order).

    With L = min(bits, _BLOCK_BITS), block b covers the steps from b << L on.
    All its states share the high part s >> L = gray(b), which differs from
    the previous block's in the one bit flip = b & -b (0 for block 0), and
    order[t] is the low part of the state at step (b << L) + t: gray(t),
    with bit L - 1 flipped in odd blocks."""
    low_bits = min(bits, _BLOCK_BITS)
    orders = _block_tables(low_bits)[2]
    for b in range(1 << (bits - low_bits)):
        yield b ^ (b >> 1), b & -b, orders[b & 1]


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
    them (cross). The witness is the first optimum reached in Gray-code
    order. Every value lies in -2m..2m.
    """
    if D.n == 0:
        raise EmptyGraphError("cannot bipartition an empty graph")
    if D.n > limit:
        raise TooLargeError(f"n={D.n} exceeds oracle limit {limit}")
    n = D.n
    bits = n - 1
    low_bits = min(bits, _BLOCK_BITS)
    popcount, states, _ = _block_tables(low_bits)
    dtype = _signed_dtype(2 * D.m)
    indeg, outdeg = D.in_degrees.tolist(), D.out_degrees.tolist()
    # the state bits of each vertex's out- and in-neighbours; vertex 0 has none
    bit = [0] + [1 << j for j in range(bits)]
    out_nb, in_nb = [0] * n, [0] * n
    for t, h in zip(D.tails.tolist(), D.heads.tolist()):
        out_nb[t] |= bit[h]
        in_nb[h] |= bit[t]
    low_mask = (1 << low_bits) - 1
    # (e12, e21) of every low state with the high part empty, by doubling:
    # moving v to side 2 adds indeg(v) and outdeg(v), less its arcs to side 2
    low12 = np.zeros(1 << low_bits, dtype)
    low21 = np.zeros(1 << low_bits, dtype)
    for j in range(low_bits):
        v, s = j + 1, states[:1 << j]
        joined = popcount[s & (out_nb[v] & low_mask)] + popcount[s & (in_nb[v] & low_mask)]
        low12[1 << j:2 << j] = low12[:1 << j] - joined + indeg[v]
        low21[1 << j:2 << j] = low21[:1 << j] - joined + outdeg[v]
    # each high vertex's arcs to every low state
    arcs_to_low = [_doubling([(out_nb[v] >> j & 1) + (in_nb[v] >> j & 1) for j in range(low_bits)],
                             dtype)
                   for v in range(low_bits + 1, n)]
    value, other = np.empty_like(low12), np.empty_like(low12)
    cross = np.zeros_like(low12)  # the arcs between low and high side-2 vertices
    base12 = base21 = 0  # (e12, e21) of the high side-2 vertices alone
    best, best_state = -1, 0
    for high, flip, order in _gray_blocks(bits):
        high_state = high << low_bits
        if flip:  # the high vertex v joins side 2 (sign 1) or leaves it (-1)
            i = flip.bit_length() - 1
            v = low_bits + 1 + i
            rest = high_state & ~bit[v]  # the other high side-2 vertices
            joined = (out_nb[v] & rest).bit_count() + (in_nb[v] & rest).bit_count()
            sign = 1 if high & flip else -1
            base12 += sign * (indeg[v] - joined)
            base21 += sign * (outdeg[v] - joined)
            (np.add if sign > 0 else np.subtract)(cross, arcs_to_low[i], out=cross)
        np.add(low12, base12, out=value)
        np.add(low21, base21, out=other)
        np.minimum(value, other, out=value)
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
    a block is a table over its low bits plus one offset. Every value lies
    in -2 sum|w|..2 sum|w|. Witness: first optimum in Gray-code order over X
    sorted ascending.
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
    low = _doubling([2 * wj for wj in w[:low_bits]], _signed_dtype(2 * sum(map(abs, w))))
    low -= sum(w)  # the high part in x2
    key = np.empty_like(low)
    offset = 0  # twice the w of the high part in x1
    best, best_state = None, 0
    for high, flip, order in _gray_blocks(k):
        if flip:
            i = flip.bit_length() - 1
            offset += 2 * w[low_bits + i] if high & flip else -2 * w[low_bits + i]
        np.add(low, offset, out=key)
        np.abs(key, out=key)
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
