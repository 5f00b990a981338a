"""Exact brute-force references.

Both oracles enumerate in Gray-code order so that consecutive states differ by
one vertex move, maintaining the objective incrementally. They exist to check
the heuristic engine and the gap solver, so they are deliberately simple:
adjacency scans per move, no vectorized shortcuts shared with the code under
test.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from .digraph import Bipartition, Digraph, cut_counts, e_between
from .errors import (
    EmptyGraphError,
    IdentityViolationError,
    PartitionError,
    TooLargeError,
)


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


def exact_max_min_cut(D: Digraph, limit: int = 24, check_every: int = 0) -> OracleResult:
    """Maximize min(e12, e21) over all bipartitions by exhaustive scan.

    Vertex 0 is pinned to side 1: swapping sides swaps e12 and e21, so the
    objective is unchanged and half the state space suffices. The witness is
    the first optimum reached in Gray-code order. With check_every > 0 the
    incremental counts are re-derived from scratch at that cadence and any
    disagreement raises (used by the self-check tests).
    """
    if D.n == 0:
        raise EmptyGraphError("cannot bipartition an empty graph")
    if D.n > limit:
        raise TooLargeError(f"n={D.n} exceeds oracle limit {limit}")
    n = D.n
    out_adj = [D.out_neighbors(v).tolist() for v in range(n)]
    in_adj = [D.in_neighbors(v).tolist() for v in range(n)]
    side1 = [True] * n
    e12 = e21 = 0
    best = min(e12, e21)
    best_sides = side1.copy()
    total = 1 << (n - 1)
    for i in range(1, total):
        v = 1 + (i & -i).bit_length() - 1
        out1 = sum(1 for w in out_adj[v] if side1[w])
        in1 = sum(1 for w in in_adj[v] if side1[w])
        out2 = len(out_adj[v]) - out1
        in2 = len(in_adj[v]) - in1
        if side1[v]:
            e12 += in1 - out2
            e21 += out1 - in2
        else:
            e12 += out2 - in1
            e21 += in2 - out1
        side1[v] = not side1[v]
        if check_every and i % check_every == 0:
            fresh = cut_counts(
                D, Bipartition([1 if s else 2 for s in side1])
            )
            if (fresh.e12, fresh.e21) != (e12, e21):
                raise IdentityViolationError(
                    f"incremental cut drifted at step {i}: "
                    f"({e12},{e21}) vs ({fresh.e12},{fresh.e21})"
                )
        if min(e12, e21) > best:
            best = min(e12, e21)
            best_sides = side1.copy()
    witness = Bipartition([1 if s else 2 for s in best_sides])
    return OracleResult(optimum=best, witness=witness, evaluated=total)


def exact_min_gap(D: Digraph, x, limit: int = 24) -> OracleGapResult:
    """Minimize |gap| over all 2^|X| partitions of X by exhaustive scan.

    The gap of (x1, x2) is (e(x1,Y) + e(Y,x2)) - (e(x2,Y) + e(Y,x1)) with
    Y = V - X. Moving one vertex across changes it by twice that vertex's
    Y-imbalance, which is measured per vertex straight from the definition via
    e_between. Witness: first optimum in Gray-code order over X sorted
    ascending.
    """
    try:
        in_x = {operator.index(v) for v in x}
    except TypeError:
        raise PartitionError("X contains a vertex id that is not an integer") from None
    xs = sorted(in_x)
    if xs and not 0 <= xs[0] <= xs[-1] < D.n:
        raise PartitionError(f"X contains a vertex outside 0..{D.n - 1}")
    ys = [v for v in range(D.n) if v not in in_x]
    k = len(xs)
    if k > limit:
        raise TooLargeError(f"|X|={k} exceeds oracle limit {limit}")
    w = [e_between(D, [v], ys) - e_between(D, ys, [v]) for v in xs]
    total_w = sum(w)
    in_x1 = [False] * k
    sigma = -total_w  # all of X on side x2
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
    return OracleGapResult(
        theta_abs_min=abs(best_sigma),
        theta=best_sigma,
        x1=x1,
        x2=x2,
        evaluated=1 << k,
    )
