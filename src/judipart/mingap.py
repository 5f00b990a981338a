"""Minimum-gap partitions of a distinguished vertex set X.

For a split V = X u Y and a partition (x1, x2) of X, the gap is

    theta(x1, x2) = (e(x1, Y) + e(Y, x2)) - (e(x2, Y) + e(Y, x1)),

the imbalance between the "forward" arc mass m_f = e(x1,Y) + e(Y,x2) and the
"backward" mass m_b = e(x2,Y) + e(Y,x1). The solver finds a partition of X
minimizing |theta|.

Arcs inside X cancel out of theta, so with the per-vertex Y-imbalance
w(x) = e(x, Y) - e(Y, x) the gap is sum_{x1} w - sum_{x2} w for any e(X).
One exact subset-sum over the attainable signed sums therefore solves every
instance, with no size limit. When e(X) = 0, w(x) is the imbalance
splus(x) = outdeg - indeg.

The sums are bigint bitsets over span + 1 bits (span = sum of |w(x)|). The
forward pass keeps the suffix bitset only at every ceil(sqrt(items))-th item
and at the empty suffix; the reconstruction rebuilds one block of suffixes
at a time from the checkpoint after it. Memory is about 2 sqrt(items)
bitsets, time at most two forward passes. A subset and its complement pair
up, so the attainable sums are symmetric about their midpoint, and the
nearest one is the highest set bit at or below it.

Every function here takes X (or its parts x1, x2) and counts against the
complement Y = V - X. A GapResult keeps that count, the per-vertex
(e(v, Y), e(Y, v)), so the candidates and the certificate built on it read
Y's arcs without counting them again.

Ties among minimum-gap partitions are broken deterministically: vertices
prefer side x2 in increasing index order (equivalently, the x1-indicator
vector is lexicographically smallest). Vertices with w(x) = 0 always land in
x2; they cannot affect the gap.

Residual quantities attached to the result (all integers):

- huge: X-vertices with s(x) >= |theta|_min, sorted by s descending (index
  ascending on ties); k = (|huge| - 1) / 2 when |huge| is odd, else None
- g: sum of s(x) over the non-huge X-vertices
- b: half of sum over X of (degree(x) - s(x)), the "balanced" arc mass
- forward/backward: classification of X-vertices under the returned (x1, x2):
  forward means (x in x1 with splus > 0) or (x in x2 with splus < 0);
  backward is the mirror; s = 0 vertices are neither
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .digraph import Digraph, arc_census, e_between, split_masks


@dataclass(frozen=True)
class MfMb:
    mf: int
    mb: int
    z: int        # e(x1, Y)
    zprime: int   # e(Y, x2)


@dataclass(frozen=True)
class GapResult:
    x: tuple[int, ...]
    x1: tuple[int, ...]
    x2: tuple[int, ...]
    theta: int
    theta_abs_min: int
    huge: tuple[int, ...]
    k: int | None
    g: int
    b: int
    forward: tuple[int, ...]
    backward: tuple[int, ...]
    # arc_census(D, Y) for Y = V - x, read-only; determined by x, so it takes
    # no part in comparisons
    y_census: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)


def _parts_and_y(D: Digraph, x1, x2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of x1, x2 and Y = V - x1 - x2."""
    in_x1, in_x2 = split_masks(D.n, [x1, x2], "x1, x2")
    return in_x1, in_x2, ~(in_x1 | in_x2)


def gap(D: Digraph, x1, x2) -> int:
    """Gap of (x1, x2) against Y = V - x1 - x2, straight from the definition."""
    c1, c2, cy = (np.flatnonzero(m) for m in _parts_and_y(D, x1, x2))
    return (e_between(D, c1, cy) + e_between(D, cy, c2)) - (
        e_between(D, c2, cy) + e_between(D, cy, c1)
    )


def mf_mb(D: Digraph, x1, x2, y_census=None) -> MfMb:
    """Forward and backward arc mass of (x1, x2) against Y = V - x1 - x2.
    y_census, when the caller has it, is arc_census(D, Y): a GapResult's
    y_census for a split of its x."""
    in_x1, in_x2, in_y = _parts_and_y(D, x1, x2)
    to_y, from_y = arc_census(D, in_y) if y_census is None else y_census
    z = int(to_y[in_x1].sum())
    zp = int(from_y[in_x2].sum())
    mb = int(to_y[in_x2].sum() + from_y[in_x1].sum())
    return MfMb(mf=z + zp, mb=mb, z=z, zprime=zp)


def _dp_min_gap(xs, values):
    """Subset-sum over signed values; returns (chosen x1 vertices, theta)."""
    items = [(v, val) for v, val in zip(xs, values) if val != 0]
    if not items:
        return [], 0
    total = sum(val for _, val in items)
    offset = -sum(val for _, val in items if val < 0)
    span = sum(abs(val) for _, val in items)

    def extend(suffix, val):
        return suffix | (suffix << val if val > 0 else suffix >> -val)

    # suffix(i) = bitmask of sums attainable from items[i:], bit = sum + offset;
    # kept holds it at every step-th i and at the empty suffix
    step = isqrt(len(items) - 1) + 1
    kept = {len(items): 1 << offset}
    suffix = kept[len(items)]
    for i in range(len(items) - 1, -1, -1):
        suffix = extend(suffix, items[i][1])
        if i % step == 0:
            kept[i] = suffix
    # bits pair up about span / 2 (a subset and its complement), so the
    # highest set bit at or below it and its mirror are the nearest sums
    below = (kept[0] & ((2 << span // 2) - 1)).bit_length() - 1
    targets = (below, span - below)
    # lexicographic reconstruction: prefer x2 (exclusion) in index order,
    # rebuilding one block's suffixes from the checkpoint after it
    chosen = []
    partial = 0
    for start in range(0, len(items), step):
        end = min(start + step, len(items))
        block = [kept[end]]  # block[j] = suffix(end - j)
        for i in range(end - 1, start, -1):
            block.append(extend(block[-1], items[i][1]))
        for i in range(start, end):
            rest = block[end - i - 1]
            if not any(t >= partial and rest >> (t - partial) & 1 for t in targets):
                v, val = items[i]
                chosen.append(v)
                partial += val
    if partial + offset not in targets:
        raise AssertionError("subset-sum reconstruction drifted")
    return chosen, 2 * partial - total


def min_gap_partition(D: Digraph, x) -> GapResult:
    """Partition X minimizing |gap| against Y = V - X, with every residual."""
    (in_x,) = split_masks(D.n, [x], "X")
    xa = np.flatnonzero(in_x)
    xs = tuple(xa.tolist())
    to_y, from_y = arc_census(D, ~in_x)
    to_y.setflags(write=False)
    from_y.setflags(write=False)
    chosen, theta = _dp_min_gap(xs, (to_y - from_y)[xa].tolist())
    theta_abs = abs(theta)
    in_x1 = set(chosen)
    splus = (D.out_degrees[xa] - D.in_degrees[xa]).tolist()
    degree = (D.out_degrees[xa] + D.in_degrees[xa]).tolist()
    s = [abs(sp) for sp in splus]
    # s descending, index ascending on ties
    huge = tuple(v for _, v in sorted((-sv, v) for v, sv in zip(xs, s)
                                      if sv >= theta_abs))
    return GapResult(
        x=xs,
        x1=tuple(chosen),  # _dp_min_gap keeps the ascending order of xs
        x2=tuple(v for v in xs if v not in in_x1),
        theta=theta,
        theta_abs_min=theta_abs,
        huge=huge,
        k=(len(huge) - 1) // 2 if len(huge) % 2 == 1 else None,
        g=sum(sv for sv in s if sv < theta_abs),
        b=(sum(degree) - sum(s)) // 2,
        forward=tuple(v for v, sp in zip(xs, splus)
                      if (sp > 0 if v in in_x1 else sp < 0)),
        backward=tuple(v for v, sp in zip(xs, splus)
                       if (sp < 0 if v in in_x1 else sp > 0)),
        y_census=(to_y, from_y),
    )
