"""Top-level partitioner.

Pipeline: split vertices into a high-degree core X (total degree at least
n^(3/4), one fixed rule) and the rest Y, solve the minimum-gap partition of X,
derive the structured candidate partitions keyed by the huge-vertex layout
(GapResult.k, None when the huge count is even), extend each candidate over Y
by independent random assignment (side 1 with probability p) across repeated
trials, polish the best trial with single-vertex flips (and, when n <= 128,
two-vertex flips), and keep the overall best. Every step ranks cuts by
(min{e12, e21}, e12 + e21), in one of two forms: _lift tests whether a move
raises it, _first_best picks the first best of several cuts. A d above the
minimum outdegree is reported in PartitionOutcome.warnings alone.

The trials are drawn 64 to a word, one row of words per Y vertex. For each
64 trials every vertex has one word, bit t set when it sits on side 1 in
trial t: all ones on x1, zero on x2, its row of words on Y. Trial t's e12 is
then the number of arcs whose tail & ~head word has bit t set, and e21 the
same with the ends swapped: two per-bit counts over the arcs, taken a block
at a time by byte-lane (SWAR) counting (extension_trial_cuts, _bit_counts).
Nothing of size trials x arcs or trials x |Y| is built.

The local search keeps every vertex's flip deltas (d12, d21), the change in
(e12, e21) if it flipped alone. _flip_state derives them, with the cut, from
one arc_census of side 1: c[v], the number of arcs, either way, between v and
side 1, and v's degrees give the deltas. After that a flip moves them only at
the flipped vertex, which negates both, and at the other ends of its arcs
(Fiduccia-Mattheyses gain bookkeeping). A round screens every vertex in one
vectorized pass (_lift), ranks the screened ones by one integer code (a
16-bit radix sort when it fits), keeps those that rank above every screened
neighbour (Luby's independent set), and flips the best prefix of them in rank
order. No arc joins two of them, so their deltas add exactly, and the
neighbours' deltas catch up in two scatters over the arcs the round has
already sliced. A round slices the arcs of the ranked order in at most two
pieces: the top max(64, 2r) ranked vertices, r being one past the previous
round's last flipped rank (all of them in a call's first round), and the
rest only when the best prefix so far is below what a longer prefix could
still reach, the cut after every kept vertex of the first piece plus the
positive deltas of the vertices past it. The per-vertex state takes the
width of the graph's adjacency (int32 unless 2m or n reaches 2^31). Rounds
run until nothing is screened. A two-vertex flip scores as the sum of its
single flips plus a correction for the arcs joining the pair
(Kernighan-Lin), from the same _flip_state, and is screened by the same
_lift. The best trial, the best prefix of a round and the best candidate are
all the first entry with the largest (min cut, total cut) (_first_best).

Dense or degree-flat instances skip the split entirely: when
m >= 8n/max(eps, 1/28)^2 or max degree <= eps^2 m / 4, a plain p = 1/2 random
bipartition already concentrates, so the engine runs the empty-X candidate
alone (uniform_split_bound). The 1/28 floor makes m >= 6272 n enough for any
eps.

Every function takes X, or a candidate's parts x1 and x2, and derives
Y = V - X itself, essential_tight_components included; a GapResult carries
its X (gr.x), so nothing takes X beside one. X, which records hold, is a
tuple; any integer sequence is accepted and checked (digraph.split_masks).

Randomness contract: candidate labeled L draws all its trials from the raw
64-bit words of one stream, np.random.PCG64(SeedSequence((seed, crc32(L)))).
Each 64 trials are one bitsliced draw (Knuth and Yao): every lane starts
undecided; for each binary digit of p up to the last 1 (at most 53), one raw
word per Y vertex (ascending) is read, and an undecided lane whose raw bit is
0 takes the digit (1 = side 1). Lanes left undecided are on side 2; p = 0
and p = 1 read nothing. So each trial bit is independently Bernoulli(p) to
within 2^-53, results are reproducible and independent of execution order,
and, as a draw stops only once all 64 lanes are decided, a run with more
trials only adds trials after the first ones.

Candidates: MINGAP is the gap solver's own (x1, x2) with p = 1/2. Each
structured candidate is a row (label, lead, literal, p) of one table, placed
by one rule (_place) with splus = outdeg - indeg: a lead vertex goes to x1
when its splus > 0, or always when literal is set; any other X vertex goes
to x1 when its splus < 0; the rest of X is x2. With huge in the gap
solver's order, nonhuge = X - huge and k from the gap result:

- X1FWD: lead huge[:k] + nonhuge, p = 1/2
- X2SIGN (k >= 1): lead sel + nonhuge, p = (d-1)/(2d), where sel is the
  first k of the top 2k-1 huge with splus >= 0, or else the first k of
  those with splus < 0
- X3SIGN (k >= 1): lead sel + nonhuge, literal, p = (d-1)/(2d)
- X4 (d = 4, k = 1): lead huge[0] + nonhuge, p = 5/14
- X5 (d = 4, k = 1): lead vi + nonhuge, literal, p = 5/14, vi being the
  huge vertex carrying the most balanced arc mass toward Y
- SINGLE-HUGE (|huge| = 1): lead huge, p = 1/2

Vertices with splus = 0 sit on side 2 unless a literal row leads with them.
The first candidate per (x1, p), in the table's row order (MINGAP, then
the rows as listed above), is kept (_dedupe).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from zlib import crc32

import numpy as np

from . import certify as certify_mod
from .certify import Certificate
from .digraph import (
    Bipartition,
    CutValue,
    Digraph,
    arc_census,
    cut_counts,
    max_degree,
    min_outdegree,
    split_masks,
    stable_order,
)
from .errors import (
    EmptyGraphError,
    InputError,
    PartitionError,
    TooLargeError,
)
from .mingap import GapResult, min_gap_partition
from .tight import essential_tight_components


@dataclass(frozen=True)
class EngineConfig:
    d: int
    epsilon: float = 0.01
    trials: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        # d, trials and seed are stored as int and epsilon as float: a numpy
        # integer d fails in the candidates' Fraction hashing, and a float
        # one deep in the engine
        for name in ("d", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InputError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.epsilon, numbers.Real):
            raise InputError(f"epsilon must be a real number, got {self.epsilon!r}")
        if self.d < 1:
            raise InputError(f"d must be >= 1, got {self.d}")
        if not 0 < self.epsilon < 1:
            raise InputError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "epsilon", float(self.epsilon))


@dataclass(frozen=True)
class CandidateXPartition:
    label: str
    x1: tuple[int, ...]
    x2: tuple[int, ...]
    p: Fraction


@dataclass(frozen=True)
class CandidateRun:
    label: str
    p: Fraction
    cut: CutValue


@dataclass(frozen=True)
class PartitionOutcome:
    bipartition: Bipartition
    cut: CutValue
    ratio: float
    candidate_used: str
    certificate: Certificate
    guarantee_target: float
    d_configured: int
    d_actual: int
    shortcut: bool
    huge_even: bool
    x: tuple[int, ...]
    threshold: float | None
    per_candidate: tuple[CandidateRun, ...]
    warnings: tuple[str, ...] = field(default=())

    def to_jsonable(self) -> dict:
        return {
            "n": self.bipartition.n,
            "cut": {"e12": self.cut.e12, "e21": self.cut.e21, "min": self.cut.minval},
            "ratio": self.ratio,
            "candidate_used": self.candidate_used,
            "guarantee_target": self.guarantee_target,
            "d_configured": self.d_configured,
            "d_actual": self.d_actual,
            "shortcut": self.shortcut,
            "huge_even": self.huge_even,
            "x": list(self.x),
            "threshold": self.threshold,
            "per_candidate": [
                {
                    "label": r.label,
                    "p": str(r.p),
                    "e12": r.cut.e12,
                    "e21": r.cut.e21,
                    "min": r.cut.minval,
                }
                for r in self.per_candidate
            ],
            "side1": list(self.bipartition.side1()),
            "certificate": self.certificate.to_jsonable(),
            "warnings": list(self.warnings),
        }


def uniform_split_bound(n: int, m: int, max_deg: int, eps: float) -> bool:
    """True when a p = 1/2 uniform split already concentrates:
    m >= 8n / max(eps, 1/28)^2 or max_deg <= eps^2 m / 4. Exact rational
    comparison on the float eps; the density branch alone takes the floor,
    so m >= 6272 n is always enough."""
    e = Fraction(eps)
    dense = max(e, Fraction(1, 28))
    return m >= Fraction(8 * n) / (dense * dense) or max_deg <= e * e * m / 4


def uniform_split_applicable(D: Digraph, cfg: EngineConfig) -> bool:
    md = max_degree(D) if D.n else 0
    return uniform_split_bound(D.n, D.m, md, cfg.epsilon)


def split_by_degree(D: Digraph) -> tuple[int, ...]:
    """X, ascending: the vertices of total degree >= n^(3/4), exactly (the
    least integer t with t^4 >= n^3 is isqrt(isqrt(n^3 - 1)) + 1)."""
    if D.n == 0:
        raise EmptyGraphError("cannot split an empty graph")
    in_x = D.degrees() >= isqrt(isqrt(D.n ** 3 - 1)) + 1
    return tuple(np.flatnonzero(in_x).tolist())


def mingap_candidate(gr: GapResult) -> CandidateXPartition:
    return CandidateXPartition("MINGAP", gr.x1, gr.x2, Fraction(1, 2))


def _place(splus: dict[int, int], lead, literal: bool) -> tuple[tuple, tuple]:
    """(x1, x2) of X = splus's keys, ascending: a lead vertex goes to x1 when
    its splus > 0, or always when literal is set; any other vertex goes to
    x1 when its splus < 0; the rest is x2."""
    lead = set(lead)
    x1, x2 = [], []
    for v, s in splus.items():
        (x1 if ((literal or s > 0) if v in lead else s < 0) else x2).append(v)
    return tuple(x1), tuple(x2)


def candidate_x_partitions(
    D: Digraph, gr: GapResult, cfg: EngineConfig
) -> list[CandidateXPartition]:
    """Structured candidates for the given gap result (X is gr.x). They are
    keyed by the huge-vertex layout k, set when the huge count is odd; when
    it is even (X = () included) the MINGAP candidate is the only one. Each
    is one row (label, lead, literal, p) placed by _place."""
    huge, k = gr.huge, gr.k
    if k is None:
        return [mingap_candidate(gr)]
    xs = list(gr.x)
    splus = dict(zip(xs, (D.out_degrees[xs] - D.in_degrees[xs]).tolist()))
    nonhuge = tuple(sorted(set(gr.x) - set(huge)))
    half, p_sign, p4 = Fraction(1, 2), Fraction(cfg.d - 1, 2 * cfg.d), Fraction(5, 14)
    rows = [("X1FWD", huge[:k] + nonhuge, False, half)]
    if k >= 1:
        window = huge[: 2 * k - 1]
        nonneg = [v for v in window if splus[v] >= 0]
        negs = [v for v in window if splus[v] < 0]
        sel = tuple((nonneg if len(nonneg) >= k else negs)[:k])
        rows += [("X2SIGN", sel + nonhuge, False, p_sign),
                 ("X3SIGN", sel + nonhuge, True, p_sign)]
    if cfg.d == 4 and k == 1:
        to_y, from_y = gr.y_census
        balanced = np.minimum(to_y, from_y)[list(huge)].tolist()
        vi = huge[max(range(len(huge)), key=lambda i: (balanced[i], -i))]
        rows += [("X4", (huge[0],) + nonhuge, False, p4),
                 ("X5", (vi,) + nonhuge, True, p4)]
    if len(huge) == 1:
        rows.append(("SINGLE-HUGE", huge, False, half))
    return _dedupe([mingap_candidate(gr)] + [
        CandidateXPartition(label, *_place(splus, lead, literal), p)
        for label, lead, literal, p in rows])


def _dedupe(cands: list[CandidateXPartition]) -> list[CandidateXPartition]:
    """The first candidate per (x1, p), in order."""
    first: dict = {}
    for c in cands:
        first.setdefault((c.x1, c.p), c)
    return list(first.values())


_ONES = ~np.uint64(0)


def _trial_stream(label: str, seed: int) -> np.random.PCG64:
    """Candidate label's one stream under engine seed: a PCG64 seeded by
    SeedSequence((seed, crc32(label))), the whole seed as entropy."""
    tag = crc32(label.encode("utf-8"))
    return np.random.PCG64(np.random.SeedSequence((seed, tag)))


def _trial_words(label: str, p: Fraction, ysize: int, cfg: EngineConfig) -> np.ndarray:
    """Bit t % 64 of words[i, t // 64] is 1 when Y vertex i sits on side 1 in
    trial t: a (ysize, ceil(trials / 64)) uint64 array, columns contiguous
    (Fortran order), bits past the last trial 0. Each column is one
    bitsliced draw from _trial_stream(label, cfg.seed) under the randomness
    contract: per binary digit of p, one raw word per Y vertex, and an
    undecided lane whose raw bit is 0 takes the digit. It stops once its 64
    lanes are decided, so the words it reads do not depend on trials."""
    words = np.full((ysize, -(-cfg.trials // 64)), _ONES if p >= 1 else 0,
                    dtype=np.uint64, order="F")
    # p's digits up to the last 1, by integer arithmetic: none for p = 0 or 1
    digits = format((p.numerator << 53) // p.denominator % (1 << 53), "053b").rstrip("0")
    bitgen = _trial_stream(label, cfg.seed)
    undecided = np.empty(ysize, dtype=np.uint64)
    for col in words.T:
        undecided.fill(_ONES)
        for digit in digits:
            if digit == "1":  # every undecided lane to side 1 ...
                col |= undecided
            undecided &= bitgen.random_raw(ysize)
            if digit == "1":  # ... but those still undecided, back to 0
                col ^= undecided
            if not np.count_nonzero(undecided):
                break
    if cfg.trials % 64:
        words[:, -1] &= np.uint64((1 << cfg.trials % 64) - 1)
    return words


_PAIR_LIMIT = 128  # the pair scan is an n x n pass; keep it off large graphs


def _lift(d12, d21, e12, e21):
    """(low, gain): the change in min cut and in total cut when a cut
    (e12, e21) moves by (d12, d21), elementwise on delta arrays of any shape.
    The move raises (min cut, total cut) when low + (gain > 0) > 0."""
    lo, hi = (d12, d21) if e12 <= e21 else (d21, d12)
    return np.minimum(lo, hi + abs(e12 - e21)), d12 + d21


def _first_best(e12, e21) -> int:
    """The index of the first entry of the arrays with the largest
    (min cut, total cut)."""
    low = np.minimum(e12, e21)
    return int(np.where(low == low.max(), e12 + e21, -1).argmax())


def _flip_state(D: Digraph, side1: np.ndarray):
    """(sgn, d12, d21, e12, e21) of the bipartition with side 1 marked by
    side1: sgn = +1 on side 1, -1 on side 2; (d12, d21), the change in
    (e12, e21) if a vertex flipped alone, sgn * (c - outdeg) and
    sgn * (c - indeg) with c the number of arcs, either way, between the
    vertex and side 1; and the cut now, as ints. One arc_census gives all of
    it; the arrays have the dtype of D.incidence()."""
    dtype = D.incidence()[0].dtype
    out1, in1 = arc_census(D, side1)
    c = out1 + in1
    sgn = np.where(side1, 1, -1).astype(dtype)
    d12 = (sgn * (c - D.out_degrees)).astype(dtype)
    d21 = (sgn * (c - D.in_degrees)).astype(dtype)
    return sgn, d12, d21, int(in1[~side1].sum()), int(out1[~side1].sum())


def _pair_escape(D: Digraph, P: Bipartition, cfg: EngineConfig) -> Bipartition:
    """Flip two vertices at once to hop out of single-flip local optima.

    Scores every pair u < v in one n x n pass (_lift on the pair's summed
    deltas less the Kernighan-Lin correction), flips the first improving pair
    in row-major order, polishes with local_improve, and repeats until no pair
    improves. Every accepted move strictly raises (min cut, total cut), hence
    termination."""
    adj = np.zeros((D.n, D.n), dtype=np.int64)
    adj[D.tails, D.heads] = 1
    joined = adj + adj.T  # arcs between u and v, either direction
    best = P
    while True:
        side1 = best.sides == 1
        s, d12, d21, e12, e21 = _flip_state(D, side1)
        corr = np.outer(s, s) * joined  # the single-flip sum's error on arcs joining u, v
        low, gain = _lift(d12[:, None] + d12 - corr, d21[:, None] + d21 - corr, e12, e21)
        improving = np.triu(low + (gain > 0) > 0, k=1)
        if not improving.any():
            return best
        u, v = divmod(int(np.argmax(improving)), D.n)
        side1[[u, v]] = ~side1[[u, v]]
        best = local_improve(D, Bipartition(np.where(side1, 1, 2)), cfg)


# the low bit of every byte lane of a uint64, and the 8 shifts that fill it
_LANES = np.uint64(0x0101010101010101)
_SHIFTS = np.arange(8, dtype=np.uint64)[:, None, None]
# the arcs are counted _ARC_BLOCK at a time: the two cut words per arc and
# their 8 shifted copies take 576 KiB for any m and trials
_ARC_BLOCK = 1 << 12


def _bit_counts(x: np.ndarray) -> np.ndarray:
    """Per bit b of the uint64 words x (r x L): how many of the L words in
    each row have bit b set, as r x 64 int64 counts.

    Byte-lane counting (Warren, Hacker's Delight, ch. 5): (x >> j) & 0x01..01
    moves bit 8i + j of a word to the low bit of byte lane i, and a sum of at
    most 255 such words cannot carry out of a lane, so np.add.reduceat over
    groups of 255 words gives 8 lane counts per group and shift."""
    lanes = x >> _SHIFTS  # shift j, row, word
    lanes &= _LANES
    # little-endian, so byte i of a group sum is lane i
    groups = np.add.reduceat(lanes, np.arange(0, x.shape[1], 255), axis=2).astype(
        "<u8", copy=False)
    counts = groups.view(np.uint8).reshape(8, len(x), -1, 8).sum(axis=2, dtype=np.int64)
    return counts.transpose(1, 2, 0).reshape(len(x), 64)  # bit 8i + j at lane i, shift j


def extension_trial_cuts(
    D: Digraph,
    cand: CandidateXPartition,
    cfg: EngineConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (e12, e21) for cfg.trials independent assignments of
    Y = V - x1 - x2, plus the trials themselves as _trial_words draws them
    (one row of words per Y vertex in ascending order, bit set = side 1).

    For each 64 trials every vertex gets one word, bit t set when it sits on
    side 1 in trial t: all ones on x1, zero on x2, its row of words on Y.
    Then e12_t is the number of arcs whose word tail & ~head has bit t set,
    and e21_t the same with the ends swapped; the arcs are taken _ARC_BLOCK
    at a time and counted by _bit_counts. Nothing of size trials x arcs or
    trials x |Y| is built, and beside the words only one vertex word per
    vertex and one block of arcs are held.

    Raises TooLargeError when the words, or the 2 x 64 counts each column of
    them yields, cannot be addressed."""
    side1x, in_x2 = split_masks(D.n, [cand.x1, cand.x2], "x1, x2")
    in_y = ~(side1x | in_x2)
    ys = np.flatnonzero(in_y)  # rows of words, ascending
    if max(len(ys), 128) * -(-cfg.trials // 64) >= np.iinfo(np.intp).max // 8:
        raise TooLargeError(
            f"{cfg.trials} trials over |Y| = {len(ys)} are too many to pack")

    words = _trial_words(cand.label, cand.p, len(ys), cfg)
    counts = np.zeros((2, words.shape[1], 64), dtype=np.int64)  # e12, e21
    vertex_word = np.zeros(D.n, dtype=np.uint64)
    vertex_word[side1x] = _ONES
    for w in range(words.shape[1]):
        vertex_word[ys] = words[:, w]
        for lo in range(0, D.m, _ARC_BLOCK):
            tail = vertex_word[D.tails[lo:lo + _ARC_BLOCK]]
            head = vertex_word[D.heads[lo:lo + _ARC_BLOCK]]
            counts[:, w] += _bit_counts(np.stack((tail & ~head, head & ~tail)))
    e12s, e21s = counts.reshape(2, -1)[:, : cfg.trials]
    return e12s, e21s, words


def extend_partition_randomized(
    D: Digraph,
    cand: CandidateXPartition,
    cfg: EngineConfig,
) -> Bipartition:
    """Best-of-trials random extension of (x1, x2) over Y = V - x1 - x2 with
    P(side 1) = p, polished by local_improve and, when n <= _PAIR_LIMIT, by
    _pair_escape."""
    e12s, e21s, words = extension_trial_cuts(D, cand, cfg)
    best = _first_best(e12s, e21s)
    sides = np.zeros(D.n, dtype=np.uint8)
    sides[list(cand.x1)] = 1
    sides[list(cand.x2)] = 2
    on1 = (words[:, best // 64] >> best % 64) & 1  # Y, ascending, as the rows
    sides[sides == 0] = np.where(on1 == 1, 1, 2)
    out = local_improve(D, Bipartition(sides), cfg)
    return _pair_escape(D, out, cfg) if D.n <= _PAIR_LIMIT else out


def _arc_slices(indptr: np.ndarray, degree: np.ndarray,
                vs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positions indptr[v]:indptr[v] + degree[v] of every v in vs,
    concatenated, and where each v's run starts in them and its length."""
    starts, lens = indptr[vs], degree[vs]
    firsts = lens.cumsum() - lens
    at = np.arange(firsts[-1] + lens[-1]) + np.repeat(starts - firsts, lens)
    return at, firsts, lens


def _slice_ranked(indptr: np.ndarray, ends: np.ndarray, degree: np.ndarray,
                  rank: np.ndarray, piece: np.ndarray,
                  ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(other, lens, keep) of the ranked screened vertices piece, whose ranks
    are ranks: the other ends of their arcs, run by run, as intp (an index:
    intp gathers fastest), each run's length, and whether each vertex ranks
    above every screened neighbour (a screened vertex has an arc, so no run
    is empty). rank holds every screened vertex's rank in the round, so the
    keep test of a vertex reads only ranks above its own."""
    arcs, firsts, lens = _arc_slices(indptr, degree, piece)
    other = ends[arcs].astype(np.intp)
    return other, lens, np.minimum.reduceat(rank[other], firsts) > ranks


def local_improve(D: Digraph, P: Bipartition, cfg: EngineConfig) -> Bipartition:
    """Single-vertex flips, a batch of pairwise non-adjacent ones per round,
    until no single flip raises (min cut, total cut). No setting of cfg
    changes the search.

    A round screens every vertex: a vertex is screened when its flip alone
    raises (min cut, total cut) (_lift). The screened vertices are ranked
    by (new min, new total) descending, then by index, through one code per
    vertex (_rank_order), and a screened vertex is kept when it ranks above
    every screened neighbour (Luby's independent-set step). No arc joins two
    kept vertices, so flipping any of them moves (e12, e21) by exactly the
    sum of their deltas. The round flips the first prefix, in rank order,
    whose summed deltas give the best (min, total) (_first_best; the
    best-prefix step of deterministic parallel refinement). The top vertex
    alone improves, so every round strictly raises (min, total), which is at
    most m: the loop ends.

    A round slices the arcs of the ranked order in at most two pieces. The
    first is the top max(64, 2r) ranked vertices, r being one more than the
    rank of the previous round's last flip (the first round of a call slices
    them all). The rest is sliced only when the first does not settle the
    round: with (S12, S21) the cut after every kept vertex of the first
    piece flipped and (P12, P21) the positive parts of the deltas of the
    screened vertices past it, no later prefix can reach more than
    (min(S12 + P12, S21 + P21), S12 + S21 + P12 + P21), so a best prefix at
    least that high is the round's first best. The bound is exact: the keep
    test at a rank reads only the ranks above it, _first_best keeps the
    first best, and the kept deltas add exactly.

    Every vertex's flip deltas (d12, d21) are kept current from round to
    round: a flipped vertex negates both, and a neighbour u of a flipped v
    moves both by -sgn[u] * sgn[v] per arc joining them (v's sign before the
    flip), over the arcs the round has already sliced. The per-vertex state
    has the dtype of D.incidence(); the cut sums are int64."""
    if P.n != D.n:
        raise PartitionError("bipartition size mismatch")
    indptr, ends = D.incidence()
    dtype = indptr.dtype
    sgn, d12, d21, e12, e21 = _flip_state(D, P.sides == 1)
    degree = D.degrees()
    rank = np.full(D.n, D.n, dtype=dtype)  # a screened vertex's rank in its round, else n
    r = D.n  # the first round slices every ranked vertex
    while True:
        low, gain = _lift(d12, d21, e12, e21)
        screened = (low + (gain > 0) > 0).nonzero()[0]
        if not screened.size:
            break
        order = screened[_rank_order(low[screened], gain[screened])]
        ranks = np.arange(len(order), dtype=dtype)
        rank[order] = ranks
        # at most two passes: the top max(64, 2r) ranks are sliced, then all
        # the rest when they do not settle the round
        top = max(64, 2 * r)
        other, lens, keep = _slice_ranked(indptr, ends, degree, rank, order[:top],
                                          ranks[:top])
        while True:
            kept_rank = keep.nonzero()[0]
            kept = order[kept_rank]
            sum12 = d12[kept].astype(np.int64).cumsum() + e12
            sum21 = d21[kept].astype(np.int64).cumsum() + e21
            j = _first_best(sum12, sum21)
            rest = order[len(keep):]
            if not rest.size:
                break
            s12, s21 = int(sum12[-1]), int(sum21[-1])
            p12, p21 = (int(np.maximum(d[rest], 0).sum()) for d in (d12, d21))
            # settled: no prefix through the rest can beat the best
            if (min(sum12[j], sum21[j]), sum12[j] + sum21[j]) >= (
                    min(s12 + p12, s21 + p21), s12 + s21 + p12 + p21):
                break
            more = _slice_ranked(indptr, ends, degree, rank, rest, ranks[len(keep):])
            other, lens, keep = (np.concatenate(pair)
                                 for pair in zip((other, lens, keep), more))
        rank[order] = D.n
        e12, e21 = int(sum12[j]), int(sum21[j])
        # the runs of ranks 0..kept_rank[j] hold every flip's arcs; an arc of
        # a vertex that is not kept moves nothing
        r = int(kept_rank[j]) + 1
        owner_sgn = np.repeat(sgn[order[:r]] * keep[:r], lens[:r])
        nbrs = other[: owner_sgn.size]
        step = sgn[nbrs] * owner_sgn
        np.subtract.at(d12, nbrs, step)
        np.subtract.at(d21, nbrs, step)
        flips = kept[: j + 1]
        for arr in (sgn, d12, d21):
            arr[flips] = -arr[flips]
    return Bipartition(np.where(sgn > 0, 1, 2))


def _rank_order(low: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """The stable argsort of (-low, -gain) for nonnegative lows: best new min
    first, then best gain, then index. One int64 code per vertex,
    (max low - low) * (gain span + 1) + (max gain - gain), below
    (max low + 1) * (gain span + 1), sorted by stable_order: one uint16 radix
    pass when that bound is at most 2**16."""
    # the value at an argmax or argmin: on short arrays that costs half of max()
    lmax, gmax = int(low[low.argmax()]), int(gain[gain.argmax()])
    span = gmax - int(gain[gain.argmin()]) + 1
    code = low.astype(np.int64)
    code *= -span
    code -= gain
    code += lmax * span + gmax
    return stable_order(code, (lmax + 1) * span)


def partition(D: Digraph, cfg: EngineConfig) -> PartitionOutcome:
    """Full pipeline; always returns the best bipartition found. The shortcut
    (X = ()) or the degree split chooses X; one candidate path follows. An
    even huge count, X = () included, gives MINGAP alone."""
    if D.n == 0:
        raise EmptyGraphError("cannot partition an empty graph")
    d_actual = min_outdegree(D)
    warns: list[str] = []
    if d_actual < cfg.d:
        warns.append(
            f"configured d={cfg.d} exceeds the actual minimum outdegree "
            f"{d_actual}; proceeding, with both recorded"
        )

    shortcut = uniform_split_applicable(D, cfg)
    xs = () if shortcut else split_by_degree(D)
    gr = min_gap_partition(D, xs)
    cands = candidate_x_partitions(D, gr, cfg)
    huge_even = not shortcut and gr.k is None

    results = []
    for c in cands:
        bip = extend_partition_randomized(D, c, cfg)
        results.append((c, bip, cut_counts(D, bip)))

    cuts = np.array([(cv.e12, cv.e21) for _, _, cv in results])
    cand, bip, cut = results[_first_best(cuts[:, 0], cuts[:, 1])]

    tr = essential_tight_components(D, gr.x, gr.y_census)
    cert = certify_mod.build_certificate(
        D, gr, tr, cfg,
        candidates=[c for c, _, _ in results],
        flags={"shortcut": shortcut, "huge_even": huge_even},
    )
    ratio = cut.minval / D.m if D.m else 0.0
    target = float(Fraction(cfg.d - 1, 2 * (2 * cfg.d - 1)))
    return PartitionOutcome(
        bipartition=bip,
        cut=cut,
        ratio=ratio,
        candidate_used=cand.label,
        certificate=cert,
        guarantee_target=target,
        d_configured=cfg.d,
        d_actual=d_actual,
        shortcut=shortcut,
        huge_even=huge_even,
        x=gr.x,
        threshold=None if shortcut else float(D.n) ** 0.75,
        per_candidate=tuple(CandidateRun(c.label, c.p, cv) for c, _, cv in results),
        warnings=tuple(warns),
    )
