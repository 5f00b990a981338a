"""Top-level partitioner.

Pipeline: split vertices into a high-degree core X and the rest Y, solve the
minimum-gap partition of X, derive the structured candidate partitions keyed
by the huge-vertex layout, extend each candidate over Y by independent random
assignment (side 1 with probability p) across repeated trials, polish the best
trial with single-vertex flips (and, when n <= 128, two-vertex flips), and keep
the overall best. Every step ranks cuts by (min{e12, e21}, e12 + e21).

A trial's cut is linear in its Y-assignment apart from the Y-Y arcs with both
ends on side 1, so the trials are packed 8 to a byte, one row of bytes per Y
vertex, and every trial's (e12, e21) comes from bit counts over those rows
(extension_trial_cuts); nothing of size trials x arcs is built.

The local search keeps one state: c[v], the number of arcs, either way,
between v and side 1. A flip's effect on (e12, e21) follows from c and v's
degrees (_flip_deltas), and a flip moves c only at the other ends of the
flipped vertex's arcs (Fiduccia-Mattheyses gain bookkeeping). A round screens
every vertex in one vectorized pass, then decides the screened ones in index
order over plain ints: an accepted flip shifts the deltas of the later
screened vertices it shares an arc with, and c catches up in one scatter at
the round's end. A two-vertex flip scores as the sum of its single flips plus
a correction for the arcs joining the pair (Kernighan-Lin).

Dense or degree-flat instances skip the split entirely: when m >= 8n/eps^2 or
max degree <= eps^2 m / 4, a plain p = 1/2 random bipartition already
concentrates, so the engine runs the empty-X candidate alone. The same
shortcut triggers unconditionally once m >= 6272 n (the eps = 1/28 instance of
the first branch).

Y, most of V, is a sorted int64 index array from the degree split to the
certificate; X, which records hold, is a tuple. Every public function takes
any integer sequence for either and validates it (digraph.split_masks).

Randomness contract: trial t of candidate labeled L draws its stream from
(seed, crc32(L), t), so results are reproducible and independent of execution
order. The stream is exactly that of
np.random.default_rng(np.random.SeedSequence((seed, crc32(L), t))); the
PCG64 states of all trials are derived in one vectorized pass over t
(_pcg_states), and one generator draws each trial from its own state.

Candidate labels and their p:

- MINGAP: the gap solver's own (x1, x2), p = 1/2
- X1FWD: top-k huge and all non-huge forward, bottom k+1 huge backward, 1/2
- X2SIGN: k same-sign huge among the top 2k-1 forward plus non-huge forward,
  rest backward, p = (d-1)/(2d)
- X3SIGN: the same selected set plus non-huge literally on side 1, rest
  backward, p = (d-1)/(2d)
- X4, X5 (d = 4, k = 1 only): p = 5/14 shapes; X5 sides with the huge vertex
  carrying the most balanced arc mass toward Y
- SINGLE-HUGE (|huge| = 1): the lone huge vertex forward, the rest of X
  backward, p = 1/2

"Forward" placement sends a vertex to side 1 when splus > 0 and side 2
otherwise; "backward" mirrors it. Vertices with splus = 0 always sit on
side 2.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
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
    vertex_mask,
)
from .errors import (
    EmptyGraphError,
    HugeSetEvenError,
    InputError,
    MinOutdegreeWarning,
    PartitionError,
)
from .gap import GapResult, min_gap_partition
from .tight import essential_tight_components

CANDIDATE_ORDER = ("MINGAP", "X1FWD", "X2SIGN", "X3SIGN", "X4", "X5", "SINGLE-HUGE")


@dataclass(frozen=True)
class EngineConfig:
    d: int
    epsilon: float = 0.01
    threshold_exponent: float = 0.75
    trials: int = 64
    seed: int = 0
    local_improve_rounds: int = 10
    p_sweep: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InputError(f"d must be >= 1, got {self.d}")
        if not 0 < self.epsilon < 1:
            raise InputError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0 < self.threshold_exponent < 2:
            raise InputError(
                f"threshold_exponent must lie in (0, 2), got {self.threshold_exponent}"
            )
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.trials > 2 ** 32:  # trial t is one 32-bit word of its stream's seed
            raise InputError(f"trials must be <= 2**32, got {self.trials}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.local_improve_rounds < 0:
            raise InputError("local_improve_rounds must be >= 0")
        for p in self.p_sweep:
            if not 0 <= p <= 0.5:
                raise InputError(f"p_sweep values must lie in [0, 1/2], got {p}")


@dataclass(frozen=True)
class DegreeSplit:
    x: tuple[int, ...]
    y: np.ndarray  # sorted int64 ids
    threshold: float


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
    """True when a p = 1/2 uniform split already concentrates: m >= 8n/eps^2
    or max_deg <= eps^2 m / 4. Exact rational comparison on the float eps."""
    e = Fraction(eps)
    return m >= Fraction(8 * n) / (e * e) or max_deg <= e * e * m / 4


def uniform_split_applicable(D: Digraph, cfg: EngineConfig) -> bool:
    md = max_degree(D) if D.n else 0
    return uniform_split_bound(D.n, D.m, md, cfg.epsilon)


def split_by_degree(D: Digraph, cfg: EngineConfig) -> DegreeSplit:
    """X = vertices of total degree >= n^threshold_exponent, exact arithmetic."""
    if D.n == 0:
        raise EmptyGraphError("cannot split an empty graph")
    frac = Fraction(cfg.threshold_exponent).limit_denominator(64)
    p, q = frac.numerator, frac.denominator
    target = D.n ** p
    lo, hi = 0, 2 * D.n + 2  # degrees cannot exceed 2(n-1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** q >= target:
            hi = mid
        else:
            lo = mid + 1
    in_x = D.degrees() >= lo
    return DegreeSplit(x=tuple(np.flatnonzero(in_x).tolist()), y=np.flatnonzero(~in_x),
                       threshold=float(D.n) ** cfg.threshold_exponent)


def mingap_candidate(gr: GapResult) -> CandidateXPartition:
    return CandidateXPartition("MINGAP", gr.x1, gr.x2, Fraction(1, 2))


def _splus(D: Digraph, v: int) -> int:
    return int(D.out_degrees[v] - D.in_degrees[v])


def _place(D: Digraph, forward, backward, literal_x1=()) -> tuple[tuple, tuple]:
    x1, x2 = set(literal_x1), set()
    for v in forward:
        (x1 if _splus(D, v) > 0 else x2).add(v)
    for v in backward:
        (x1 if _splus(D, v) < 0 else x2).add(v)
    return tuple(sorted(x1)), tuple(sorted(x2))


def candidate_x_partitions(
    D: Digraph, y, gr: GapResult, cfg: EngineConfig
) -> list[CandidateXPartition]:
    """Structured candidates for the given gap result (X is gr.x); the huge
    count must be odd."""
    huge = gr.huge
    if len(huge) % 2 == 0:
        raise HugeSetEvenError(
            f"|huge| = {len(huge)} is even; only the MINGAP candidate applies"
        )
    k = gr.k
    assert k is not None
    nonhuge = tuple(sorted(set(gr.x) - set(huge)))
    out = [mingap_candidate(gr)]
    d = cfg.d
    p_sign = Fraction(d - 1, 2 * d)

    fw = huge[:k] + nonhuge
    bw = huge[k:]
    out.append(CandidateXPartition("X1FWD", *_place(D, fw, bw), Fraction(1, 2)))

    if k >= 1:
        window = huge[: 2 * k - 1]
        nonneg = [v for v in window if _splus(D, v) >= 0]
        negs = [v for v in window if _splus(D, v) < 0]
        sel = tuple((nonneg if len(nonneg) >= k else negs)[:k])
        rest = tuple(v for v in huge if v not in set(sel))
        out.append(
            CandidateXPartition("X2SIGN", *_place(D, sel + nonhuge, rest), p_sign)
        )
        x1, x2 = _place(D, (), rest, literal_x1=sel + nonhuge)
        out.append(CandidateXPartition("X3SIGN", x1, x2, p_sign))

    if d == 4 and k == 1:
        p4 = Fraction(5, 14)
        out.append(
            CandidateXPartition("X4", *_place(D, (huge[0],) + nonhuge, huge[1:]), p4)
        )
        to_y, from_y = arc_census(D, vertex_mask(D.n, y, "Y"))
        balanced = np.minimum(to_y, from_y)[list(huge)].tolist()
        vi = huge[max(range(len(huge)), key=lambda i: (balanced[i], -i))]
        restv = tuple(v for v in huge if v != vi)
        x1, x2 = _place(D, (), restv, literal_x1=(vi,) + nonhuge)
        out.append(CandidateXPartition("X5", x1, x2, p4))

    if len(huge) == 1:
        x1, x2 = _place(D, (huge[0],), nonhuge)
        out.append(CandidateXPartition("SINGLE-HUGE", x1, x2, Fraction(1, 2)))
    return _dedupe(out)


def _dedupe(cands: list[CandidateXPartition]) -> list[CandidateXPartition]:
    """The first candidate per (x1, p), in order."""
    first: dict = {}
    for c in cands:
        first.setdefault((c.x1, c.p), c)
    return list(first.values())


# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64's multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..count, as a (count + 1, 1) column."""
    steps = np.full(count + 1, mult, dtype=np.uint32)
    steps[0] = init
    return np.cumprod(steps, dtype=np.uint32)[:, None]


def _hashmix(words: np.ndarray, consts: np.ndarray, k: int, count: int) -> np.ndarray:
    """SeedSequence's hashmix for hash calls k..k+count-1 at once: row i of
    the result hashes words (row i of words, if it has several rows) with the
    constants of call k + i."""
    h = (words ^ consts[k:k + count]) * consts[k + 1:k + count + 1]
    return h ^ (h >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> 16)


def _pcg_states(seed: int, tag: int, trials: int) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence((seed, tag, t))) for every
    t < trials, derived for all t in one pass; tag < 2**32, trials <= 2**32.

    The entropy words are seed's words, then tag, then t. Only t differs
    between trials, so each pool word is one uint32 row over the trials,
    and a constant word is a one-element array that broadcasts over them.
    Every product wraps mod 2**32 on arrays (numpy scalars would warn)."""
    # seed's 32-bit little-endian words (0 is the one word 0), then tag
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.array([w], dtype=np.uint32) for w in words + [tag]]
    entropy.append(np.arange(trials, dtype=np.uint32))
    extra = entropy[4:]  # words past the pool, mixed into every pool word
    consts = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * len(extra))
    pool = np.zeros((4, trials), dtype=np.uint32)
    for i, w in enumerate(entropy[:4]):
        pool[i] = w
    pool = _hashmix(pool, consts, 0, 4)  # unfilled pool words hash 0
    k = 4
    for src in range(4):  # pool[src] is fixed while it mixes into the others
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, k, 3))
        k += 3
    for w in extra:
        pool = _mix(pool, _hashmix(w, consts, k, 4))
        k += 4
    # generate_state(4, uint64): 8 words cycling the pool, paired little-endian
    out = _hashmix(np.concatenate([pool, pool]), _hash_constants(_INIT_B, _MULT_B, 8), 0, 8)
    v = (out[0::2].astype(np.uint64) | (out[1::2].astype(np.uint64) << np.uint64(32))).tolist()
    states = []
    for v0, v1, v2, v3 in zip(*v):
        inc = (((v2 << 64 | v3) << 1) | 1) & _MASK128
        states.append((((inc + (v0 << 64 | v1)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _trial_matrix(label: str, p: float, ysize: int, cfg: EngineConfig) -> np.ndarray:
    """Row t: ysize draws of np.random.default_rng(SeedSequence((cfg.seed,
    crc32(label), t))).random(), compared with p.

    _pcg_states seeds every row at once, as SeedSequence and PCG64 do:
    - hashmix(w) = h ^ (h >> 16), h = (w ^ a_k) * a_(k+1) mod 2**32 with
      a_k = INIT_A * MULT_A**k, k counting the hash calls; mix(x, y) =
      r ^ (r >> 16), r = L * x - R * y mod 2**32;
    - the 4-word pool is hashmix of the first 4 entropy words (0 past the
      end), then every pool word mixes the hashmix of every other one, in
      order, then each entropy word past the 4th mixes into every pool word;
    - generate_state(4, uint64) hashes the pool twice round with
      b_k = INIT_B * MULT_B**k in place of a_k and pairs the 8 words
      little-endian into v0..v3;
    - PCG64 takes inc = ((v2 << 64 | v3) << 1 | 1) mod 2**128 and
      state = ((inc + (v0 << 64 | v1)) * M + inc) mod 2**128, M its 128-bit
      multiplier.
    One generator then draws every row from its assigned state, so each row
    is bit-identical to building the row's generator on its own."""
    A = np.empty((cfg.trials, ysize), dtype=bool)
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for t, (state, inc) in enumerate(_pcg_states(cfg.seed, crc32(label.encode("utf-8")),
                                                 cfg.trials)):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        A[t] = rng.random(ysize) < p
    return A


_PAIR_LIMIT = 128  # the pair scan is an n x n pass; keep it off large graphs


def _key(e12, e21):
    """(min cut, total cut): the order every search step ranks cuts by.
    Plain operators only, so it is cheap on scalars and elementwise on arrays;
    compare array keys with _beats."""
    total = e12 + e21
    return (total - abs(e12 - e21)) // 2, total


def _beats(a, b):
    """Elementwise a > b for two _key values."""
    return (a[0] > b[0]) | ((a[0] == b[0]) & (a[1] > b[1]))


def _flip_deltas(s, c, outdeg, indeg):
    """Change in (e12, e21) when a vertex flips; s = +1 on side 1, -1 on side 2,
    c = the number of arcs, either way, between the vertex and side 1.
    Elementwise on arrays and on scalars."""
    return s * (c - outdeg), s * (c - indeg)


def _refine(D: Digraph, bip: Bipartition, cfg: EngineConfig) -> Bipartition:
    out = local_improve(D, bip, cfg)
    if D.n <= _PAIR_LIMIT:
        out = _pair_escape(D, out, cfg)
    return out


def _pair_escape(D: Digraph, P: Bipartition, cfg: EngineConfig) -> Bipartition:
    """Flip two vertices at once to hop out of single-flip local optima.

    Scores every pair u < v in one n x n pass, flips the first improving pair
    in row-major order, polishes with local_improve, and repeats until no pair
    improves. Every accepted move strictly raises (min cut, total cut), hence
    termination."""
    adj = np.zeros((D.n, D.n), dtype=np.int64)
    adj[D.tails, D.heads] = 1
    joined = adj + adj.T  # arcs between u and v, either direction
    upper = np.triu(np.ones((D.n, D.n), dtype=bool), k=1)
    best = P
    while True:
        side1 = best.sides == 1
        s = np.where(side1, 1, -1)
        out1, in1 = arc_census(D, side1)
        d12, d21 = _flip_deltas(s, out1 + in1, D.out_degrees, D.in_degrees)
        c = cut_counts(D, best)
        corr = np.outer(s, s) * joined
        e12 = c.e12 + d12[:, None] + d12 - corr  # cut after flipping u and v
        e21 = c.e21 + d21[:, None] + d21 - corr
        improving = upper & _beats(_key(e12, e21), _key(c.e12, c.e21))
        if not improving.any():
            return best
        u, v = divmod(int(np.argmax(improving)), D.n)
        side1[[u, v]] = ~side1[[u, v]]
        best = local_improve(D, Bipartition(np.where(side1, 1, 2)), cfg)


# _BITS[v, j] is bit j of the byte value v, little-endian as np.packbits packs
_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1


def _bit_sums(rows: np.ndarray, weights=None) -> np.ndarray:
    """Column sums of the bit matrix that rows (r x 8k bytes) packs, one
    column per bit, optionally weighted per row. Each 64-bit word of columns
    takes one bincount over (byte position, byte value) codes, then the bit
    table; going a word at a time keeps the codes at r x 8 for any trials."""
    w = None if weights is None else np.repeat(weights, 8)
    sums = []
    for word in range(0, rows.shape[1], 8):
        codes = (rows[:, word:word + 8] + np.arange(0, 256 * 8, 256)).ravel()
        counts = np.bincount(codes, weights=w, minlength=256 * 8)
        sums.append(counts.reshape(8, 256) @ _BITS)
    return np.concatenate(sums).ravel()


def extension_trial_cuts(
    D: Digraph,
    cand: CandidateXPartition,
    y,
    cfg: EngineConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (e12, e21) for cfg.trials independent Y-assignments, plus the
    trial matrix itself (trials x |Y| booleans, True = side 1).

    With a_t(y) = 1 when y sits on side 1 in trial t, each trial's cut is
    linear in a_t apart from the Y-Y arcs with both ends on side 1:
    e12_t = e(X1, V - X1) + sum_y a_t(y) w12(y) - both_t with
    w12(y) = outdeg(y) - e(y, X1) - e(X1, y), and e21_t likewise with
    e(V - X1, X1) and indeg(y). The trials are packed 8 to a byte, one row
    of bytes per Y vertex, so both_t is an AND of two rows per Y-Y arc and
    every per-trial sum is a bit count (_bit_sums); nothing of size
    trials x arcs is built."""
    side1x, _, in_y = split_masks(D.n, [cand.x1, cand.x2, y], "x1, x2, Y")
    ys = np.flatnonzero(in_y)  # trial-matrix columns, ascending
    to_x1, from_x1 = arc_census(D, side1x)
    deg_x1 = (to_x1 + from_x1)[ys]
    yindex = np.full(D.n, -1, dtype=np.int64)
    yindex[ys] = np.arange(len(ys))
    yy = in_y[D.tails] & in_y[D.heads]

    A = _trial_matrix(cand.label, float(cand.p), len(ys), cfg)
    # row i holds vertex ys[i]'s trial bits, zero-padded to whole 64-bit words
    packed = np.zeros((len(ys), -(-cfg.trials // 64) * 8), dtype=np.uint8)
    packed[:, : -(-cfg.trials // 8)] = np.packbits(
        np.ascontiguousarray(A.T), axis=1, bitorder="little")
    words = packed.view(np.uint64)
    both = words[yindex[D.tails[yy]]] & words[yindex[D.heads[yy]]]
    both_t = _bit_sums(both.view(np.uint8))
    # the weighted counts are float64 sums of integers far below 2**53: exact
    s12 = _bit_sums(packed, D.out_degrees[ys] - deg_x1).astype(np.int64)
    s21 = _bit_sums(packed, D.in_degrees[ys] - deg_x1).astype(np.int64)
    outside = ~side1x
    e12s = int(from_x1[outside].sum()) + s12 - both_t
    e21s = int(to_x1[outside].sum()) + s21 - both_t
    return e12s[: cfg.trials], e21s[: cfg.trials], A


def extend_partition_randomized(
    D: Digraph,
    cand: CandidateXPartition,
    y,
    cfg: EngineConfig,
    improve: bool = True,
) -> Bipartition:
    """Best-of-trials random extension of (x1, x2) over Y with P(side 1) = p."""
    e12s, e21s, A = extension_trial_cuts(D, cand, y, cfg)
    mins, totals = _key(e12s, e21s)
    # the first trial with the largest (min, total)
    best = int(np.argmax(np.where(mins == mins.max(), totals, -1)))
    sides = np.full(D.n, 2, dtype=np.uint8)
    sides[list(cand.x1)] = 1
    sides[vertex_mask(D.n, y, "Y")] = np.where(A[best], 1, 2)
    bip = Bipartition(sides)
    return _refine(D, bip, cfg) if improve else bip


def _arc_slices(indptr: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions indptr[v]:indptr[v + 1] of every v in vs, concatenated,
    and for each the index in vs of the v that owns it."""
    starts = indptr[vs]
    lens = indptr[vs + 1] - starts
    stops = np.cumsum(lens)
    at = np.arange(stops[-1]) + np.repeat(starts - stops + lens, lens)
    return at, np.repeat(np.arange(len(vs)), lens)


def local_improve(D: Digraph, P: Bipartition, cfg: EngineConfig) -> Bipartition:
    """Single-vertex flips; accept when min cut rises, or holds with a larger
    total. Each accepted flip strictly raises (min, total), so this terminates
    regardless of the round cap.

    A round screens every vertex against the cut at the round's start, then
    re-checks the screened ones in index order against the current cut. The
    re-check runs over plain ints: a flip moves c only at its arcs' other
    ends, so an accepted flip shifts the deltas of the later screened
    vertices it shares an arc with (shift), and c itself is brought up to
    date in one scatter at the round's end. The decisions are those of
    flipping one vertex at a time with c updated after every flip."""
    if P.n != D.n:
        raise PartitionError("bipartition size mismatch")
    if D.m == 0 or D.n == 0:
        return Bipartition(P.sides)
    outdeg, indeg = D.out_degrees, D.in_degrees
    indptr, ends = D.incidence()
    side1 = P.sides == 1
    out1, in1 = arc_census(D, side1)
    c = out1 + in1
    cut = cut_counts(D, P)
    e12, e21 = cut.e12, cut.e21
    for _ in range(cfg.local_improve_rounds):
        sgn = np.where(side1, 1, -1)
        d12, d21 = _flip_deltas(sgn, c, outdeg, indeg)
        screened = np.flatnonzero(_beats(_key(e12 + d12, e21 + d21), _key(e12, e21)))
        if not screened.size:  # else the first screened vertex flips
            break
        k = len(screened)
        pos = np.full(D.n, -1, dtype=np.int64)
        pos[screened] = np.arange(k)
        arcs, owner = _arc_slices(indptr, screened)
        other = pos[ends[arcs]]
        ahead = other > owner  # arc to a screened vertex checked later
        later = other[ahead].tolist()
        first = np.searchsorted(owner[ahead], np.arange(k + 1)).tolist()
        signs = sgn[screened]
        shift = [0] * k  # change in c since the round's start
        flips = []
        low = min(e12, e21)
        for i, s, a, b in zip(range(k), signs.tolist(),
                              d12[screened].tolist(), d21[screened].tolist()):
            moved = s * shift[i]
            x, y = e12 + a + moved, e21 + b + moved
            if min(x, y) > low or (min(x, y) == low and x + y > e12 + e21):
                e12, e21, low = x, y, min(x, y)
                flips.append(i)
                for j in later[first[i]:first[i + 1]]:
                    shift[j] -= s
        flipped = np.zeros(k, dtype=bool)
        flipped[flips] = True
        side1[screened[flipped]] ^= True
        done = flipped[owner]
        np.subtract.at(c, ends[arcs[done]], signs[owner[done]])
    return Bipartition(np.where(side1, 1, 2))


def partition(D: Digraph, cfg: EngineConfig) -> PartitionOutcome:
    """Full pipeline; always returns the best bipartition found."""
    if D.n == 0:
        raise EmptyGraphError("cannot partition an empty graph")
    d_actual = min_outdegree(D)
    warns: list[str] = []
    if d_actual < cfg.d:
        msg = (
            f"configured d={cfg.d} exceeds the actual minimum outdegree "
            f"{d_actual}; proceeding, with both recorded"
        )
        warnings.warn(msg, MinOutdegreeWarning, stacklevel=2)
        warns.append(msg)

    shortcut = uniform_split_applicable(D, cfg) or D.m >= 6272 * D.n
    huge_even = False
    threshold: float | None = None
    if shortcut:
        xs: tuple[int, ...] = ()
        ys = np.arange(D.n)
        gr = min_gap_partition(D, xs, ys)
        cands = [mingap_candidate(gr)]
    else:
        sp = split_by_degree(D, cfg)
        xs, ys, threshold = sp.x, sp.y, sp.threshold
        gr = min_gap_partition(D, xs, ys)
        try:
            cands = candidate_x_partitions(D, ys, gr, cfg)
        except HugeSetEvenError:
            huge_even = True
            cands = [mingap_candidate(gr)]

    if cfg.p_sweep:
        cands = _dedupe(cands + [
            replace(c, p=Fraction(pv).limit_denominator(10 ** 6))
            for c in cands for pv in cfg.p_sweep
        ])

    results = []
    for c in cands:
        bip = extend_partition_randomized(D, c, ys, cfg, improve=True)
        results.append((c, bip, cut_counts(D, bip)))

    cand, bip, cut = max(results, key=lambda r: _key(r[2].e12, r[2].e21))

    tr = essential_tight_components(D, ys)
    cert = certify_mod.build_certificate(
        D, xs, ys, gr, tr, cfg,
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
        x=xs,
        threshold=threshold,
        per_candidate=tuple(CandidateRun(c.label, c.p, cv) for c, _, cv in results),
        warnings=tuple(warns),
    )
