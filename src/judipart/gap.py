"""Minimum-gap partitions of a distinguished vertex set X.

For a split V = X u Y and a partition (x1, x2) of X, the gap is

    theta(x1, x2) = (e(x1, Y) + e(Y, x2)) - (e(x2, Y) + e(Y, x1)),

the imbalance between the "forward" arc mass m_f = e(x1,Y) + e(Y,x2) and the
"backward" mass m_b = e(x2,Y) + e(Y,x1). The solver finds a partition of X
minimizing |theta|.

Arcs inside X cancel out of theta, so with the per-vertex Y-imbalance
w(x) = e(x, Y) - e(Y, x) the gap is sum_{x1} w - sum_{x2} w for any e(X).
One exact subset-sum table over the attainable signed sums therefore solves
every instance; its size is capped by a state budget. When e(X) = 0, w(x) is
the imbalance splus(x) = outdeg - indeg.

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

from dataclasses import dataclass, replace

import numpy as np

from .digraph import Digraph, arc_census, e_between, split_masks
from .errors import PartitionError, StateLimitError


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


def gap(D: Digraph, x1, x2, y) -> int:
    """Gap of (x1, x2) against Y, straight from the definition."""
    c1, c2, cy = (
        np.flatnonzero(m) for m in split_masks(D.n, [x1, x2, y], "x1, x2, Y")
    )
    return (e_between(D, c1, cy) + e_between(D, cy, c2)) - (
        e_between(D, c2, cy) + e_between(D, cy, c1)
    )


def mf_mb(D: Digraph, x1, x2, y) -> MfMb:
    in_x1, in_x2, in_y = split_masks(D.n, [x1, x2, y], "x1, x2, Y")
    to_y, from_y = arc_census(D, in_y)
    z = int(to_y[in_x1].sum())
    zp = int(from_y[in_x2].sum())
    mb = int(to_y[in_x2].sum() + from_y[in_x1].sum())
    return MfMb(mf=z + zp, mb=mb, z=z, zprime=zp)


def _mask_positions(mask: int, nbits: int) -> np.ndarray:
    """Positions of set bits of a bigint, as an array."""
    nbytes = (nbits + 7) // 8
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def _dp_min_gap(xs, values, state_limit: int):
    """Subset-sum over signed values; returns (chosen x1 vertices, theta)."""
    items = [(v, val) for v, val in zip(xs, values) if val != 0]
    total = sum(val for _, val in items)
    if not items:
        return [], 0
    neg = sum(val for _, val in items if val < 0)
    pos = sum(val for _, val in items if val > 0)
    span = pos - neg  # sum of |values|
    if len(items) * (span + 1) > state_limit:
        raise StateLimitError(
            f"subset-sum table of {len(items)}x{span + 1} states exceeds "
            f"limit {state_limit}"
        )
    offset = -neg
    # suffix[i] = bitmask of sums attainable from items[i:], bit = sum + offset
    suffix = [0] * (len(items) + 1)
    suffix[len(items)] = 1 << offset
    for i in range(len(items) - 1, -1, -1):
        val = items[i][1]
        prev = suffix[i + 1]
        suffix[i] = prev | (prev << val if val > 0 else prev >> -val)
    positions = _mask_positions(suffix[0], span + 1)
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


def min_gap_partition(
    D: Digraph,
    x,
    y,
    state_limit: int = 10 ** 8,
) -> GapResult:
    """Partition X minimizing |gap| against Y = V without X; fully completed result."""
    in_x, in_y = split_masks(D.n, [x, y], "X, Y")
    xs = tuple(np.flatnonzero(in_x).tolist())
    to_y, from_y = arc_census(D, in_y)
    chosen, theta = _dp_min_gap(xs, (to_y - from_y)[in_x].tolist(), state_limit)
    x1 = tuple(sorted(chosen))
    x2 = tuple(sorted(set(xs) - set(chosen)))
    gr = GapResult(
        x=xs, x1=x1, x2=x2, theta=theta, theta_abs_min=abs(theta),
        huge=(), k=None, g=0, b=0, forward=(), backward=(),
    )
    return huge_and_residuals(D, xs, gr)


def huge_and_residuals(D: Digraph, x, gr: GapResult) -> GapResult:
    """Fill huge/k/g/b and the forward/backward classification; idempotent."""
    xs = tuple(sorted(set(x)))
    if xs != gr.x:
        raise PartitionError("gap result was computed for a different X")
    s = {v: abs(int(D.out_degrees[v] - D.in_degrees[v])) for v in xs}
    splus = {v: int(D.out_degrees[v] - D.in_degrees[v]) for v in xs}
    huge = tuple(sorted((v for v in xs if s[v] >= gr.theta_abs_min),
                        key=lambda v: (-s[v], v)))
    hset = set(huge)
    k = (len(huge) - 1) // 2 if len(huge) % 2 == 1 else None
    g = sum(s[v] for v in xs if v not in hset)
    b = sum(D.degree(v) - s[v] for v in xs) // 2
    x1set = set(gr.x1)
    forward = tuple(sorted(
        v for v in xs
        if (v in x1set and splus[v] > 0) or (v not in x1set and splus[v] < 0)
    ))
    backward = tuple(sorted(
        v for v in xs
        if (v in x1set and splus[v] < 0) or (v not in x1set and splus[v] > 0)
    ))
    return replace(gr, huge=huge, k=k, g=g, b=b, forward=forward, backward=backward)
