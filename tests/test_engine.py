"""Engine pipeline: degree split, candidates, extension, improvement."""
from __future__ import annotations

import hashlib
import json
import tracemalloc
import warnings as _warnings
from fractions import Fraction
from pathlib import Path
from zlib import crc32

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judipart import (
    Bipartition,
    CandidateXPartition,
    CutValue,
    EngineConfig,
    InputError,
    PartitionError,
    TooLargeError,
    build_certificate,
    candidate_x_partitions,
    cut_counts,
    e_between,
    essential_tight_components,
    exact_max_min_cut,
    extend_partition_randomized,
    extension_trial_cuts,
    from_arc_list,
    gen_random_minout,
    gen_skew_d4,
    gen_star_triangle,
    gen_tight_union,
    local_improve,
    min_gap_partition,
    mingap_candidate,
    partition,
    split_by_degree,
    uniform_split_applicable,
    uniform_split_bound,
    verify_record,
)
from judipart import certify as certify_mod, digraph as digraph_mod, engine as engine_mod, mingap
from judipart import tight as tight_mod
from judipart.engine import (
    _ARC_BLOCK,
    _bit_counts,
    _pair_escape,
    _trial_stream,
    _trial_words,
)

from helpers import (
    CANDIDATE_ORDER,
    hub_candidate_corpus,
    hub_digraph,
    reference_bit_counts,
    reference_candidate_x_partitions,
    reference_extension_trial_cuts,
    reference_full_slice_local_improve,
    reference_local_improve,
    reference_pair_escape,
    reference_trial_matrix,
    single_flip_cuts,
    unpack_trial_words,
)


def cfg4(**kw):
    return EngineConfig(d=4, **kw)


GOLDEN_OUTCOMES = Path(__file__).parent / "golden" / "partition_outcomes.json"


def golden_outcomes() -> dict:
    """Outcome records of fixed partition runs, as pinned in GOLDEN_OUTCOMES.
    Rewrite that file (json.dumps(..., indent=1, sort_keys=True)) only when an
    outcome is meant to change."""
    runs = {
        # n <= 128, and the pair escape accepts moves on this one
        "random_n40_pair_escape": (
            gen_random_minout(40, 3, extra=20, seed=16),
            EngineConfig(d=3, trials=16, seed=16),
        ),
        "skew_d4_n60": (gen_skew_d4(60), cfg4(trials=16, seed=3)),
        "tight_union_d4x3_augment": (
            gen_tight_union(4, 3, augment=True), cfg4(trials=16, seed=5),
        ),
        "shortcut_m10n": (
            gen_random_minout(20, 10, seed=0),
            EngineConfig(d=4, epsilon=0.9, trials=16, seed=1),
        ),
        # |huge| = 3 at d = 4: the X4 and X5 candidates and the d = 4 chain
        "hub_d4_n73_x4_x5": (hub_digraph(73, 3, seed=44), cfg4(trials=16, seed=44)),
        # two hubs in X, one of them huge
        "hub_n66_single_huge": (hub_digraph(66, 2, seed=177), cfg4(trials=16, seed=177)),
    }
    return {
        name: json.loads(json.dumps(partition(D, cfg).to_jsonable()))
        for name, (D, cfg) in runs.items()
    }


def test_config_validation():
    with pytest.raises(InputError):
        EngineConfig(d=0)
    with pytest.raises(InputError):
        EngineConfig(d=1, epsilon=0.0)
    with pytest.raises(InputError):
        EngineConfig(d=1, epsilon=1.5)
    with pytest.raises(InputError):
        EngineConfig(d=1, trials=0)
    with pytest.raises(TypeError):  # every candidate's p is fixed
        EngineConfig(d=1, p_sweep=(0.3,))
    with pytest.raises(TypeError):  # the local search has no round cap
        EngineConfig(d=1, local_improve_rounds=10)
    with pytest.raises(TypeError):  # X is always degree >= n^(3/4)
        EngineConfig(d=1, threshold_exponent=0.5)
    assert EngineConfig(d=4).trials == 64


@pytest.mark.parametrize("field, value", [
    ("d", 4.5), ("d", True), ("d", "4"), ("d", np.bool_(True)),
    ("trials", 2.5), ("trials", None), ("seed", 1.5), ("seed", False),
    ("epsilon", "0.1"), ("epsilon", None), ("epsilon", 1j),
])
def test_config_refuses_a_field_of_the_wrong_type(field, value):
    with pytest.raises(InputError, match=field):
        EngineConfig(**{"d": 4, field: value})


def test_config_stores_numpy_numbers_as_python_ones():
    cfg = EngineConfig(d=np.int64(4), trials=np.uint8(16), seed=np.int32(1),
                       epsilon=np.float32(0.5))
    assert [type(v) for v in (cfg.d, cfg.trials, cfg.seed, cfg.epsilon)] == [int] * 3 + [float]
    D = gen_skew_d4(20)
    want = partition(D, EngineConfig(d=4, trials=16, seed=1, epsilon=0.5)).to_jsonable()
    assert partition(D, cfg).to_jsonable() == want


def test_split_by_degree_cases():
    flat = gen_random_minout(100, 1, seed=0)  # degrees far below 100^0.75
    # force degree exactly 2 everywhere: a big directed cycle
    cyc = from_arc_list(100, [(i, (i + 1) % 100) for i in range(100)])
    assert split_by_degree(cyc) == ()
    assert partition(cyc, EngineConfig(d=1, trials=1)).threshold == pytest.approx(100 ** 0.75)

    skew = gen_skew_d4(200)
    assert split_by_degree(skew) == (0, 1, 2, 3, 4)

    star = gen_star_triangle(40)
    assert split_by_degree(star) == (0,)
    assert flat.n == 100  # keep the unused generator honest


@pytest.mark.parametrize("n", [16, 81, 256, 625, 4096, 100, 1000])
def test_split_by_degree_threshold_boundary(n):
    """A hub of degree ceil(n^(3/4)) is in X and one of degree one less is
    not; at n = k^4, n^(3/4) = k^3 is an integer and floats could round."""
    t = next(t for t in range(n) if t ** 4 >= n ** 3)  # ceil(n^(3/4))
    k = round(n ** 0.25)
    if k ** 4 == n:
        assert t == k ** 3
    arcs = [(0, v) for v in range(2, t + 2)] + [(1, v) for v in range(2, t + 1)]
    D = from_arc_list(n, arcs)
    assert D.degrees()[:2].tolist() == [t, t - 1]
    assert split_by_degree(D) == (0,)
    out = partition(D, EngineConfig(d=1, trials=1))
    assert not out.shortcut and out.x == (0,)
    assert out.threshold == float(n) ** 0.75


def test_uniform_split_bound_cases():
    assert uniform_split_bound(10, 100, 6, 0.9)            # m = 10n branch
    star = gen_star_triangle(30)
    assert not uniform_split_bound(star.n, star.m, 29, 0.1)
    assert uniform_split_bound(50, 60, 15, 1.0)            # max degree <= m/4
    # the degree branch keeps eps itself, not the density branch's 1/28 floor
    assert not uniform_split_bound(1000, 313600, 100, 0.01)
    assert uniform_split_bound(1000, 313600, 7, 0.01)    # 7 <= 0.0001 m / 4
    assert uniform_split_applicable(gen_random_minout(20, 10, seed=0),
                                    EngineConfig(d=4, epsilon=0.9))


@pytest.mark.parametrize("n", [1, 10, 1000])
def test_uniform_split_bound_density_floor(n):
    """The density branch is m >= 8n / max(eps, 1/28)^2, exactly: 6272 n at
    eps = 0.01 (below 1/28) and 8n / 0.05^2 = 3200 n at eps = 0.05. max_deg = m
    keeps the degree branch out."""
    for eps, per_n in ((0.01, 6272), (0.05, 3200)):
        m = per_n * n
        assert not uniform_split_bound(n, m - 1, m - 1, eps)
        assert uniform_split_bound(n, m, m, eps)


def k1_instance():
    """Arc-free X = {0,1,2}, all three huge, k = 1, d = 4 regime."""
    arcs = [(0, y) for y in range(3, 10)]
    arcs += [(1, y) for y in range(3, 9)]
    arcs += [(2, y) for y in range(3, 8)]
    arcs += [(10, 1), (11, 1), (12, 1)]
    return from_arc_list(13, arcs)


def test_candidate_shapes_k1_with_small_clique_probes():
    D = k1_instance()
    xs = [0, 1, 2]
    assert e_between(D, xs, xs) == 0
    gr = min_gap_partition(D, xs)
    assert gr.theta_abs_min == 1 and gr.k == 1
    assert gr.huge == (0, 2, 1)  # ordered by imbalance descending
    cands = {c.label: c for c in candidate_x_partitions(D, gr, cfg4())}
    assert cands["MINGAP"].x1 == (1, 2)
    assert cands["X1FWD"].x1 == (0,) and cands["X1FWD"].p == Fraction(1, 2)
    assert cands["X2SIGN"].x1 == (0,) and cands["X2SIGN"].p == Fraction(3, 8)
    assert "X3SIGN" not in cands  # same split as X2SIGN here, deduplicated
    assert cands["X4"].x1 == (0,) and cands["X4"].p == Fraction(5, 14)
    # vertex 1 is the only huge vertex with balanced traffic both ways
    assert cands["X5"].x1 == (1,) and cands["X5"].p == Fraction(5, 14)


def test_candidate_shapes_single_huge():
    arcs = [(0, y) for y in range(2, 8)]
    arcs += [(1, 2), (1, 3), (4, 1), (5, 1)]
    D = from_arc_list(8, arcs)
    gr = min_gap_partition(D, [0, 1])
    assert gr.huge == (0,) and gr.k == 0
    cands = {c.label: c for c in candidate_x_partitions(D, gr, cfg4())}
    assert "SINGLE-HUGE" in cands
    assert cands["SINGLE-HUGE"].x1 == (0,)
    assert cands["SINGLE-HUGE"].p == Fraction(1, 2)
    assert cands["MINGAP"].x1 == ()


def test_even_huge_gives_mingap_alone_and_engine_flags_it():
    D = from_arc_list(6, [(0, 2), (0, 3), (0, 4), (0, 5),
                          (1, 2), (1, 3), (1, 4), (1, 5)])
    gr = min_gap_partition(D, [0, 1])
    assert len(gr.huge) == 2
    for g in (gr, min_gap_partition(D, ())):  # X = (): no huge vertex either
        assert candidate_x_partitions(D, g, cfg4()) == [mingap_candidate(g)]
    out = partition(D, EngineConfig(d=1, trials=16, seed=0))
    assert out.huge_even
    assert tuple(r.label for r in out.per_candidate) == ("MINGAP",)


def test_candidates_match_the_forward_backward_reference():
    """The one-rule table reproduces the per-vertex forward/backward placement
    on a hub corpus that reaches every label, the `negs` branch of sel and a
    candidate _dedupe drops."""
    labels, negs, dropped = set(), 0, 0
    for D, gr, cfg in hub_candidate_corpus():
        got = candidate_x_partitions(D, gr, cfg)
        assert got == reference_candidate_x_partitions(D, gr, cfg)
        labels |= {c.label for c in got}
        k, huge = gr.k, gr.huge
        if k is None:
            continue
        splus = (D.out_degrees - D.in_degrees)[list(huge[: 2 * k - 1])]
        negs += k >= 1 and int((splus >= 0).sum()) < k
        rows = 2 + 2 * (k >= 1) + 2 * (cfg.d == 4 and k == 1) + (len(huge) == 1)
        dropped += rows - len(got)
    assert labels == set(CANDIDATE_ORDER)
    assert negs > 0 and dropped > 0


def test_golden_per_candidate_labels_follow_candidate_order():
    for name, rec in json.loads(GOLDEN_OUTCOMES.read_text()).items():
        labels = [r["label"] for r in rec["per_candidate"]]
        assert labels == [c for c in CANDIDATE_ORDER if c in labels], name


def test_extension_degenerate_cases():
    D = gen_skew_d4(12)
    cand = CandidateXPartition("MINGAP", (4,), (0, 1, 2, 3), Fraction(1, 2))
    _, _, words = extension_trial_cuts(D, cand, cfg4(trials=4, seed=0))
    assert words.shape == (7, 1)  # one row per vertex of Y = 5..11

    # p = 0 sends all of Y to side 2 in every trial
    c0 = CandidateXPartition("MINGAP", (4,), (0, 1, 2, 3), Fraction(0))
    e12s, e21s, words0 = extension_trial_cuts(D, c0, cfg4(trials=4, seed=0))
    assert not words0.any()
    c = cut_counts(D, Bipartition.from_side1(D.n, (4,)))
    assert c.e12 == e_between(D, [4], [0, 1, 2, 3]) + e_between(D, [4], range(5, 12))
    assert e12s.tolist() == [c.e12] * 4 and e21s.tolist() == [c.e21] * 4


def test_extension_empty_y_is_exact():
    D = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
    cand = CandidateXPartition("MINGAP", (0,), (1, 2), Fraction(1, 2))
    e12s, e21s, words = extension_trial_cuts(D, cand, EngineConfig(d=1, trials=8, seed=1))
    assert words.shape == (0, 1)
    c = cut_counts(D, Bipartition.from_side1(D.n, (0,)))
    assert e12s.tolist() == [c.e12] * 8 and e21s.tolist() == [c.e21] * 8


def test_extension_rejects_vertices_outside_the_graph():
    D = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
    cfg = EngineConfig(d=1, trials=4, seed=0)
    for x1 in ((5,), (-1,)):
        cand = CandidateXPartition("MINGAP", x1, (1, 2), Fraction(1, 2))
        with pytest.raises(PartitionError):
            extension_trial_cuts(D, cand, cfg)
        with pytest.raises(PartitionError):
            extend_partition_randomized(D, cand, cfg)


def test_triangle_extension_hits_optimum():
    D = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
    cand = CandidateXPartition("MINGAP", (), (), Fraction(1, 2))
    bip = extend_partition_randomized(D, cand, EngineConfig(d=1, trials=64, seed=0))
    c = cut_counts(D, bip)
    assert min(c.e12, c.e21) == 1


def test_trial_streams_reproducible_and_label_dependent():
    D = gen_skew_d4(20)
    cand = CandidateXPartition("MINGAP", (4,), (0, 1, 2, 3), Fraction(1, 2))
    cfg = cfg4(trials=32, seed=9)
    words1 = extension_trial_cuts(D, cand, cfg)[2]
    words2 = extension_trial_cuts(D, cand, cfg)[2]
    assert np.array_equal(words1, words2)
    other = CandidateXPartition("X1FWD", (4,), (0, 1, 2, 3), Fraction(1, 2))
    assert not np.array_equal(words1, extension_trial_cuts(D, other, cfg)[2])


# 1/3 and 5/14 never end in binary, so a column reads words until every lane
# is decided; 3/8 and 1/2 end after 3 digits and 1; 0 and 1 read no words
YSIZE_P = [(y, p) for y in (0, 1, 13, 1000, 5000)
           for p in (Fraction(0), Fraction(1, 3), Fraction(3, 8), Fraction(5, 14),
                     Fraction(1, 2), Fraction(1))]


# one to five 32-bit seed words
STREAM_SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 100, 2 ** 130)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_matrix_matches_per_trial_streams(seed):
    """The trial matrix the words hold is, lane by lane, the candidate's one
    stream of raw words, PCG64(SeedSequence((seed, crc32(L)))), compared
    with p's binary digits; later columns start where earlier ones stopped."""
    i = 0
    for label in CANDIDATE_ORDER:
        for trials in (1, 7, 64, 65, 130):
            ysize, p = YSIZE_P[i % len(YSIZE_P)]
            i += 1
            cfg = EngineConfig(d=1, trials=trials, seed=seed)
            words = _trial_words(label, p, ysize, cfg)
            assert words.shape == (ysize, -(-trials // 64)) and words.dtype == np.uint64
            want = reference_trial_matrix(label, p, ysize, cfg)
            assert np.array_equal(unpack_trial_words(words, trials), want), (label, trials, p)
            if trials % 64:  # bits past the last trial stay 0
                assert not (words[:, -1] >> np.uint64(trials % 64)).any()


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(3, 8), Fraction(5, 14),
                               Fraction(1, 2)], ids=str)
def test_trial_bits_are_independent_bernoulli_p(p):
    """2^20 lanes (|Y| = 2^14, 64 trials): the share on side 1 is p within
    5 sigma, and disjoint pairs of neighbouring trials (t, t + 1) and of
    neighbouring Y rows (i, i + 1) agree at the rate p^2 + (1 - p)^2 of
    independent draws, within 5 sigma."""
    A = unpack_trial_words(_trial_words("X2SIGN", p, 1 << 14, EngineConfig(d=1, seed=7)), 64)

    def near(hits, rate):
        rate = float(rate)
        return abs(hits.mean() - rate) <= 5 * (rate * (1 - rate) / hits.size) ** 0.5

    agree = p * p + (1 - p) * (1 - p)
    assert near(A, p)
    assert near(A[0::2] == A[1::2], agree)
    assert near(A[:, 0::2] == A[:, 1::2], agree)


@pytest.mark.parametrize("seed", STREAM_SEEDS + (2 ** 64 - 1, 2 ** 96))
def test_pcg_states_equal_seeded_pcg64(seed):
    """Each candidate's stream is a PCG64 at the state of
    SeedSequence((seed, crc32(L))); every word of the seed counts, and the
    label keys the stream."""
    states = []
    for label in CANDIDATE_ORDER:
        bitgen = _trial_stream(label, seed)
        want = np.random.PCG64(np.random.SeedSequence((seed, crc32(label.encode("utf-8")))))
        assert isinstance(bitgen, np.random.PCG64) and bitgen.state == want.state
        states.append(bitgen.state["state"]["state"])
        if seed >= 2 ** 32:  # not cut to its low word
            low = _trial_stream(label, seed % 2 ** 32).state
            assert low["state"]["state"] != states[-1]
    assert len(set(states)) == len(CANDIDATE_ORDER)


def test_more_trials_only_add_trials():
    D = gen_random_minout(300, 3, extra=200, seed=4)
    cand = CandidateXPartition("X2SIGN", (0, 7), (1, 2), Fraction(3, 8))
    e12a, e21a, words_a = extension_trial_cuts(D, cand, EngineConfig(d=3, trials=64, seed=6))
    e12b, e21b, words_b = extension_trial_cuts(D, cand, EngineConfig(d=3, trials=130, seed=6))
    assert e12b[:64].tolist() == e12a.tolist() and e21b[:64].tolist() == e21a.tolist()
    assert np.array_equal(words_b[:, :1], words_a)


def test_trial_cut_memory_grows_only_by_the_packed_trials():
    """At 256 trials the trial cuts hold more only in the packed words
    (|Y| x 8 bytes per 64 trials) and the per-trial counts, not a trials x |Y|
    matrix or a per-trial copy of the arcs. Twice the arcs, at fixed n and
    trials, add less than a byte per vertex: the arcs are counted a block at
    a time, and both graphs span several blocks."""
    D = gen_random_minout(50_000, 1, seed=2)
    D2 = gen_random_minout(50_000, 1, extra=50_000, seed=2)
    assert D2.m == 2 * D.m > 2 * _ARC_BLOCK
    cand = CandidateXPartition("MINGAP", (), (), Fraction(1, 2))  # Y = V

    def peak(D, trials):
        cfg = EngineConfig(d=1, trials=trials, seed=0)
        tracemalloc.start()
        try:
            extension_trial_cuts(D, cand, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    extension_trial_cuts(D, cand, EngineConfig(d=1, trials=1))  # one-time set-up, unmeasured
    growth = peak(D, 256) - peak(D, 64)
    packed = D.n * (256 - 64) // 8
    assert growth <= packed + 64 * 1024, (growth, packed)
    growth = peak(D2, 64) - peak(D, 64)
    assert growth <= D.n, growth


@pytest.mark.parametrize("length", [1, 254, 255, 256, 511, _ARC_BLOCK - 1, _ARC_BLOCK,
                                    _ARC_BLOCK + 1])
def test_bit_counts_match_a_shift_and_mask_count(length):
    """Groups of 255 words, and one more or one less, in every row of a
    two-row block."""
    rng = np.random.default_rng(length)
    x = rng.integers(0, 2 ** 64, size=(2, length), dtype=np.uint64, endpoint=False)
    x[1, ::3] = 0
    got = _bit_counts(x)
    assert got.dtype == np.int64 and got.shape == (2, 64)
    assert np.array_equal(got, reference_bit_counts(x))


def test_bit_counts_fill_a_byte_lane_to_255():
    """255 all-ones words put exactly 255 in every byte lane; a word fewer or
    more also counts exactly."""
    for length in (254, 255, 256):
        x = np.full((1, length), np.iinfo(np.uint64).max, dtype=np.uint64)
        assert _bit_counts(x).tolist() == [[length] * 64]


@pytest.mark.parametrize("extra", [0, 1], ids=["one-block", "one-block-plus-1"])
def test_extension_trial_cuts_across_the_arc_block(extra):
    """m at and just above the arc block; 130 trials make three words, the
    last one partial; x1 and x2 are both nonempty."""
    n = _ARC_BLOCK // 4
    D = gen_random_minout(n, 4, extra=extra, seed=5)
    assert D.m == _ARC_BLOCK + extra
    cand = CandidateXPartition("X4", tuple(range(0, 60, 4)), tuple(range(2, 90, 4)),
                               Fraction(5, 14))
    cfg = EngineConfig(d=4, trials=130, seed=3)
    e12s, e21s, words = extension_trial_cuts(D, cand, cfg)
    assert words.shape == (n - len(cand.x1) - len(cand.x2), 3)
    ref_e12, ref_e21, A = reference_extension_trial_cuts(D, cand, cfg)
    assert np.array_equal(unpack_trial_words(words, cfg.trials), A)
    assert e12s.tolist() == ref_e12.tolist() and e21s.tolist() == ref_e21.tolist()


def test_trials_beyond_addressable_words_are_too_large():
    D = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
    for x1, x2 in (((), ()), ((0,), (1, 2))):  # |Y| = 3 and |Y| = 0
        cand = CandidateXPartition("MINGAP", x1, x2, Fraction(1, 2))
        with pytest.raises(TooLargeError, match="too many to pack"):
            extension_trial_cuts(D, cand, EngineConfig(d=1, trials=2 ** 62))


def test_local_improve_examples():
    tri = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
    cfg = EngineConfig(d=1)
    opt = Bipartition.from_side1(3, [0])
    assert cut_counts(tri, local_improve(tri, opt, cfg)).minval == 1
    allone = Bipartition.from_side1(3, [0, 1, 2])
    improved = local_improve(tri, allone, cfg)
    assert cut_counts(tri, improved).minval == 1
    arc = from_arc_list(2, [(0, 1)])
    P = Bipartition.from_side1(2, [0])
    assert cut_counts(arc, local_improve(arc, P, cfg)).minval == 0


def test_local_improve_never_degrades():
    rng = np.random.default_rng(5)
    cfg = EngineConfig(d=1)
    for i in range(25):
        D = gen_random_minout(9, 2, extra=int(rng.integers(0, 8)), seed=200 + i)
        P = Bipartition(rng.integers(1, 3, size=9).astype(np.uint8))
        before = cut_counts(D, P).minval
        after = cut_counts(D, local_improve(D, P, cfg)).minval
        assert after >= before


def test_local_improve_returns_an_arcless_graph_as_given():
    """With no arc no flip moves the cut, so the sides come back unchanged,
    n = 0 included."""
    for n in (0, 1, 3):
        D = from_arc_list(n, [])
        for P in (Bipartition([1] * n), Bipartition([2] * n), Bipartition([1, 2, 1][:n])):
            assert local_improve(D, P, EngineConfig(d=1)) == P


def test_pair_escape_matches_the_brute_force_reference():
    """From a single-flip optimum, _pair_escape makes the moves of the
    brute-force reference: the first pair u < v, in row-major order, whose
    two flips raise (min, total) by cut_counts, then a polish. Some of those
    moves raise the total cut alone."""
    cfg = EngineConfig(d=1)
    moved = total_only = 0
    for n in (8, 12, 16, 20, 24):
        for d in (2, 3):
            for seed in range(4):
                rng = np.random.default_rng((n, d, seed))
                D = gen_random_minout(n, d, extra=int(rng.integers(0, n + 1)), seed=seed)
                start = local_improve(D, Bipartition(rng.integers(1, 3, size=n)), cfg)
                want, moves = reference_pair_escape(D, start)
                assert _pair_escape(D, start, cfg) == want, (n, d, seed)
                moved += bool(moves)
                total_only += any(after[0] == before[0] for _, before, after in moves)
    assert moved >= 10 and total_only >= 5, (moved, total_only)


def _flip_key(D, sides, *vs):
    trial = sides.copy()
    trial[list(vs)] = 3 - trial[list(vs)]
    c = cut_counts(D, Bipartition(trial))
    return (c.minval, c.e12 + c.e21)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_refined_extension_has_no_improving_single_or_pair_flip(data):
    n = data.draw(st.integers(min_value=2, max_value=14))
    arcs = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda a: a[0] != a[1]),
        max_size=3 * n,
    ))
    D = from_arc_list(n, sorted(arcs))
    # per vertex: 0 = in Y, 1 = fixed in x1, 2 = fixed in x2
    role = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    cand = CandidateXPartition(
        "MINGAP",
        tuple(v for v in range(n) if role[v] == 1),
        tuple(v for v in range(n) if role[v] == 2),
        Fraction(1, 2),
    )
    cfg = EngineConfig(d=1, trials=4, seed=data.draw(st.integers(0, 100)))
    sides = np.array(extend_partition_randomized(D, cand, cfg).sides)
    here = _flip_key(D, sides)
    for u in range(n):
        assert _flip_key(D, sides, u) <= here
        for v in range(u + 1, n):
            assert _flip_key(D, sides, u, v) <= here


def test_partition_outcome_structure_and_selection():
    D = gen_skew_d4(60)
    out = partition(D, cfg4(trials=16, seed=3))
    assert out.cut.minval == min(out.cut.e12, out.cut.e21)
    assert out.ratio == out.cut.minval / D.m
    assert out.guarantee_target == pytest.approx(3 / 14)
    assert out.d_configured == 4 and out.d_actual == 4
    assert out.x == (0, 1, 2, 3, 4)
    per = {r.label for r in out.per_candidate}
    assert "MINGAP" in per and len(per) >= 3
    assert out.cut.minval == max(r.cut.minval for r in out.per_candidate)
    recount = cut_counts(D, out.bipartition)
    assert (recount.e12, recount.e21) == (out.cut.e12, out.cut.e21)
    j = out.to_jsonable()
    assert json.loads(json.dumps(j)) == j
    assert j["cut"]["min"] == out.cut.minval


def test_partition_shortcut_path():
    D = gen_random_minout(20, 10, seed=0)  # m = 10n
    out = partition(D, EngineConfig(d=4, epsilon=0.9, trials=16, seed=1))
    assert out.shortcut
    assert out.x == () and out.threshold is None
    assert tuple(r.label for r in out.per_candidate) == ("MINGAP",)


def test_partition_warns_when_d_overstated():
    """The outcome's warnings are the one channel: no Python warning."""
    D = gen_star_triangle(12)  # min outdegree 1
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        out = partition(D, EngineConfig(d=2, trials=8, seed=0))
    assert out.d_actual == 1 and out.d_configured == 2
    assert out.warnings and "minimum outdegree" in out.warnings[0]


def test_partition_deterministic():
    D = gen_skew_d4(40)
    a = partition(D, cfg4(trials=16, seed=11))
    b = partition(D, cfg4(trials=16, seed=11))
    ja, jb = (json.dumps(o.to_jsonable(), sort_keys=True) for o in (a, b))
    assert ja == jb
    d2 = partition(D, cfg4(trials=16, seed=12))
    assert d2.cut == a.cut or json.dumps(d2.to_jsonable()) != ja


def test_partition_counts_the_y_arcs_once(monkeypatch):
    """min_gap_partition counts the arcs of Y = V - X once; the X5 candidate,
    the certificate's bundle and f/h scores and tau's count over the good
    vertices read that census."""
    D = hub_digraph(73, 3, seed=44)
    cfg = cfg4(trials=16, seed=44)
    in_y = np.ones(D.n, dtype=bool)
    in_y[list(split_by_degree(D))] = False
    real, over_y = engine_mod.arc_census, []

    def counting(name):
        def census(D_, in_s):
            if np.array_equal(in_s, in_y):
                over_y.append(name)
            return real(D_, in_s)
        return census

    for mod in (mingap, engine_mod, certify_mod, tight_mod):
        monkeypatch.setattr(mod, "arc_census", counting(mod.__name__), raising=False)
    out = partition(D, cfg)
    assert {"X4", "X5"} <= {r.label for r in out.per_candidate}
    assert len(out.certificate.fh_values) == len(out.per_candidate)
    assert over_y == ["judipart.mingap"]


def test_golden_outcomes_still_reproduce():
    want = json.loads(GOLDEN_OUTCOMES.read_text())
    got = golden_outcomes()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def test_small_instances_track_oracle():
    hits = 0
    for i in range(20):
        D = gen_random_minout(6 + i % 3, 2, extra=i % 4, seed=300 + i)
        out = partition(D, EngineConfig(d=2, trials=64, seed=i))
        opt = exact_max_min_cut(D).optimum
        assert out.cut.minval <= opt
        hits += out.cut.minval == opt
    assert hits >= 18


@st.composite
def digraphs(draw, max_n=30):
    """Small digraphs; some arcs get their reverse too (anti-parallel pairs)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if n == 1:
        return from_arc_list(1, [])
    arcs = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda a: a[0] != a[1]),
        max_size=4 * n,
    ))
    reverse = draw(st.lists(st.booleans(), min_size=len(arcs), max_size=len(arcs)))
    arcs |= {(v, u) for (u, v), r in zip(sorted(arcs), reverse) if r}
    return from_arc_list(n, sorted(arcs))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extension_trial_cuts_match_each_materialised_trial(data):
    D = data.draw(digraphs())
    # per vertex: 0 = in Y, 1 = fixed in x1, 2 = fixed in x2
    layout = data.draw(st.sampled_from(("mixed", "x empty", "y empty")))
    roles = {"mixed": st.integers(0, 2), "x empty": st.just(0),
             "y empty": st.integers(1, 2)}[layout]
    role = data.draw(st.lists(roles, min_size=D.n, max_size=D.n))
    cand = CandidateXPartition(
        data.draw(st.sampled_from(CANDIDATE_ORDER)),
        tuple(v for v in range(D.n) if role[v] == 1),
        tuple(v for v in range(D.n) if role[v] == 2),
        data.draw(st.sampled_from(
            (Fraction(0), Fraction(1, 2), Fraction(3, 8), Fraction(5, 14)))),
    )
    ys = [v for v in range(D.n) if role[v] == 0]
    cfg = EngineConfig(d=1, trials=data.draw(st.sampled_from((1, 7, 8, 9, 65))),
                       seed=data.draw(st.integers(0, 100)))
    e12s, e21s, words = extension_trial_cuts(D, cand, cfg)
    assert e12s.dtype == e21s.dtype == np.int64
    assert words.shape == (len(ys), -(-cfg.trials // 64))
    A = unpack_trial_words(words, cfg.trials)
    ref = reference_extension_trial_cuts(D, cand, cfg)
    assert np.array_equal(A, ref[2])
    assert e12s.tolist() == ref[0].tolist() and e21s.tolist() == ref[1].tolist()
    trial_sides = []
    for t in range(cfg.trials):
        sides = np.full(D.n, 2, dtype=np.uint8)
        sides[list(cand.x1)] = 1
        sides[ys] = np.where(A[t], 1, 2)
        trial_sides.append(Bipartition(sides))
        c = cut_counts(D, trial_sides[t])
        assert (c.e12, c.e21) == (e12s[t], e21s[t])
    # the kept trial is the first with the largest (min, total); small graphs
    # tie often
    best = max(range(cfg.trials),
               key=lambda t: (min(e12s[t], e21s[t]), e12s[t] + e21s[t]))
    # and the extension polishes exactly that trial: single flips, then pair
    # flips (n <= 30 here, below the pair scan's limit)
    polished = _pair_escape(D, local_improve(D, trial_sides[best], cfg), cfg)
    assert extend_partition_randomized(D, cand, cfg) == polished


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_local_improve_matches_the_batched_reference(data):
    D = data.draw(digraphs(max_n=40))
    sides = data.draw(st.lists(st.integers(1, 2), min_size=D.n, max_size=D.n))
    P = Bipartition(sides)
    assert local_improve(D, P, EngineConfig(d=1)) == reference_local_improve(D, P)[0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_local_improve_ends_at_a_single_flip_optimum(data):
    """No single flip raises (min, total) after local_improve, and the cut it
    reached is the reference's running (e12, e21), whose every round flips
    pairwise non-adjacent vertices and strictly raises (min, total)."""
    D = data.draw(digraphs(max_n=40))
    sides = data.draw(st.lists(st.integers(1, 2), min_size=D.n, max_size=D.n))
    P = Bipartition(sides)
    got = local_improve(D, P, EngineConfig(d=1))
    c = cut_counts(D, got)
    assert (c.e12, c.e21) == reference_local_improve(D, P)[1]
    e12, e21 = single_flip_cuts(D, got)
    low, total = np.minimum(e12, e21), e12 + e21
    assert not ((low > c.minval) | ((low == c.minval) & (total > c.e12 + c.e21))).any()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("random", "hub", "tight-union")), st.integers(65, 1500),
       st.integers(1, 4), st.integers(0, 2**16))
def test_local_improve_matches_the_full_slice_reference(family, n, d, seed):
    """Graphs with more than 64 vertices, so that a round's first piece can
    leave screened vertices unsliced: the same sides as slicing every round
    in full."""
    D = {
        "random": lambda: gen_random_minout(n, d, extra=seed % n, seed=seed),
        "hub": lambda: hub_digraph(n, d, seed=seed),
        "tight-union": lambda: gen_tight_union(d + 1, n // (d + 1), augment=True),
    }[family]()
    P = Bipartition(np.random.default_rng(seed).integers(1, 3, size=D.n).astype(np.uint8))
    assert local_improve(D, P, EngineConfig(d=1)) == reference_full_slice_local_improve(D, P)


def test_local_improve_slices_the_rest_only_when_the_first_piece_does_not_settle(
        monkeypatch):
    """On this graph and start some round's first piece leaves screened
    vertices unsliced and settles the round, and some round needs the
    second piece; the sides are those of the full-slice reference."""
    D = gen_random_minout(1000, 3, extra=500, seed=2)
    P = Bipartition(np.random.default_rng(0).integers(1, 3, size=D.n).astype(np.uint8))
    rounds = []
    rank_order, slice_ranked = engine_mod._rank_order, engine_mod._slice_ranked

    def ranking(low, gain):
        rounds.append((len(low), []))
        return rank_order(low, gain)

    def slicing(indptr, ends, degree, rank, piece, ranks):
        rounds[-1][1].append((int(ranks[0]), len(piece)))
        return slice_ranked(indptr, ends, degree, rank, piece, ranks)

    monkeypatch.setattr(engine_mod, "_rank_order", ranking)
    monkeypatch.setattr(engine_mod, "_slice_ranked", slicing)
    got = local_improve(D, P, EngineConfig(d=1))
    monkeypatch.undo()
    assert got == reference_full_slice_local_improve(D, P)
    assert rounds[0][1] == [(0, rounds[0][0])]  # the first round slices all
    for screened, pieces in rounds:
        assert pieces[0][0] == 0 and sum(size for _, size in pieces) <= screened
        if len(pieces) == 2:
            assert pieces[1] == (pieces[0][1], screened - pieces[0][1])
    assert any(len(pieces) == 2 for _, pieces in rounds)
    assert any(len(pieces) == 1 and pieces[0][1] < screened for screened, pieces in rounds)


def _relabelled(D, seed):
    perm = np.random.default_rng(seed).permutation(D.n)
    return from_arc_list(D.n, np.stack([perm[D.tails], perm[D.heads]], axis=1))


@pytest.mark.parametrize("name", ["random", "tight-union", "tight-union relabelled"])
def test_local_improve_matches_the_batched_reference_at_scale(name):
    D = {
        "random": lambda: gen_random_minout(3000, 3, extra=3000, seed=21),
        "tight-union": lambda: gen_tight_union(4, 200, augment=True),
        "tight-union relabelled": lambda: _relabelled(
            gen_tight_union(4, 200, augment=True), 22),
    }[name]()
    rng = np.random.default_rng(23)
    for start in range(3):
        P = Bipartition(rng.integers(1, 3, size=D.n).astype(np.uint8))
        got = local_improve(D, P, EngineConfig(d=1))
        want, (e12, e21) = reference_local_improve(D, P)
        assert got == want, start
        assert cut_counts(D, got) == CutValue(e12, e21, min(e12, e21)), start


def test_local_improve_matches_the_batched_reference_past_one_radix_pass():
    """A hub graph started with the hubs and most of their feeders on side 1:
    the first round's rank code, (max low - low) * (gain span + 1)
    + (max gain - gain) over the screened vertices, exceeds 2**16 - 1, and
    its low 16 bits alone would rank the vertices otherwise, so the ranking
    needs a second radix pass."""
    D = hub_digraph(2500, 2, seed=62)
    sides = np.where(np.random.default_rng(63).random(D.n) < 0.2, 2, 1).astype(np.uint8)
    sides[:2] = 1
    P = Bipartition(sides)
    cut = cut_counts(D, P)
    e12, e21 = single_flip_cuts(D, P)
    low, gain = np.minimum(e12, e21), e12 + e21 - cut.e12 - cut.e21
    screened = (low > cut.minval) | ((low == cut.minval) & (gain > 0))
    low, gain = low[screened], gain[screened]
    span = int(gain.max() - gain.min()) + 1
    code = (low.max() - low) * span + gain.max() - gain
    assert code.max() > 2**16 - 1
    assert (np.argsort(code % 2**16, kind="stable") != np.argsort(code, kind="stable")).any()
    got = local_improve(D, P, EngineConfig(d=1))
    want, (e12, e21) = reference_local_improve(D, P)
    assert got == want
    assert cut_counts(D, got) == CutValue(e12, e21, min(e12, e21))


def test_local_improve_does_not_depend_on_the_index_width(monkeypatch):
    """The same flips with int64 adjacency and state as with int32."""
    graphs = [gen_random_minout(3000, 3, extra=3000, seed=21),
              gen_tight_union(4, 200, augment=True), hub_digraph(600, 3, seed=5)]
    starts = [Bipartition(np.random.default_rng(i).integers(1, 3, size=D.n).astype(np.uint8))
              for i, D in enumerate(graphs)]
    narrow = [local_improve(D, P, EngineConfig(d=1)) for D, P in zip(graphs, starts)]
    assert all(D.incidence()[0].dtype == np.int32 for D in graphs)
    monkeypatch.setattr(digraph_mod, "index_dtype", lambda largest: np.int64)
    for D, P, want in zip(graphs, starts, narrow):
        wide = from_arc_list(D.n, np.column_stack((D.tails, D.heads)))
        assert wide.incidence()[0].dtype == np.int64
        assert local_improve(wide, P, EngineConfig(d=1)) == want


# sha256 of json.dumps(partition(D, EngineConfig(d=4, trials=t)).to_jsonable(),
# sort_keys=True): larger than the golden instances, so the local search runs
# many flips per round. Each graph's two digests differ: its one candidate's
# best trial of 64 lies past the first 20 (trial 21 on the random graph, 51
# on the tight union).
SCALE_DIGESTS = {
    ("random", 64): "ebf1f407a25f70ba2d09236a701c1e6606133a72f6d7b1286f1fca0a5f18d6f3",
    ("random", 20): "be1e8ca02b757ef4cf3872a16946528569cb73a278a93993355d7c5480191f0b",
    ("tight-union", 64): "7a28ef6be87283424a757aceb278cdbd760e4c0428f7aba95c59309fbd18e96c",
    ("tight-union", 20): "4f39e24d6e0bc45aacfda21fcd196f48ec659e5b8c00542dde2538b7fde16b29",
}


def test_outcomes_at_scale_are_pinned():
    graphs = {
        "random": gen_random_minout(5000, 4, extra=5000, seed=3),
        "tight-union": gen_tight_union(4, 300, augment=True),
    }
    for (name, trials), digest in SCALE_DIGESTS.items():
        out = partition(graphs[name], cfg4(trials=trials))
        text = json.dumps(out.to_jsonable(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, trials)


# sha256 of the tight record (TightReport.to_jsonable, json with sorted keys)
# with X from split_by_degree
TIGHT_DIGESTS = {
    "tight-union": "a10ae4a600feb8dbc7357ea717daa3ad02e63edf6c4da366dafea5fc94a520d7",
    "random": "92b8a8069e65bc255634663e653d848be4308e82138ca3c00b9e4d4fbfac7d4f",
}


def test_tight_records_at_scale_are_pinned():
    graphs = {
        "tight-union": gen_tight_union(4, 5000, augment=True),
        "random": gen_random_minout(50000, 4, extra=50000, seed=1),
    }
    for name, digest in TIGHT_DIGESTS.items():
        D = graphs[name]
        rec = essential_tight_components(D, split_by_degree(D)).to_jsonable()
        text = json.dumps(rec, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_single_flip_cuts_helper_counts_each_flip():
    D = gen_random_minout(12, 2, extra=10, seed=5)
    P = Bipartition(np.random.default_rng(6).integers(1, 3, size=12).astype(np.uint8))
    e12, e21 = single_flip_cuts(D, P)
    for v in range(D.n):
        sides = P.sides.copy()
        sides[v] = 3 - sides[v]
        c = cut_counts(D, Bipartition(sides))
        assert (c.e12, c.e21) == (e12[v], e21[v])


def test_large_outcomes_are_single_flip_optimal_and_self_consistent():
    """Checks that need no oracle, at n >= 2000: the result is a single-flip
    local optimum, the reported cut is the recomputed one, and every
    certificate record verifies from its stored strings."""
    cases = [
        (gen_random_minout(10_000, 4, extra=10_000, seed=8), cfg4(trials=16, seed=8)),
        (gen_tight_union(4, 300, augment=True), cfg4(trials=16, seed=9)),
    ]
    for D, cfg in cases:
        out = partition(D, cfg)
        assert out.cut == cut_counts(D, out.bipartition)
        assert out.certificate.checks
        assert all(verify_record(rec) for rec in out.certificate.checks)
        e12, e21 = single_flip_cuts(D, out.bipartition)
        low, total = np.minimum(e12, e21), e12 + e21
        here = (out.cut.minval, out.cut.e12 + out.cut.e21)
        assert not ((low > here[0]) | ((low == here[0]) & (total > here[1]))).any()


def vertex_set_forms(vs):
    """One vertex set as a tuple, a list, an unsorted list with repeats and
    an int64 array."""
    vs = sorted(vs)
    return [tuple(vs), list(vs), vs[::-1] + vs[: len(vs) // 2 + 1],
            np.array(vs, dtype=np.int64)]


@pytest.mark.parametrize("D, e_x", [
    pytest.param(hub_digraph(73, 3, seed=44), 0, id="hub"),
    pytest.param(gen_skew_d4(60), 20, id="skew-d4"),
])
def test_results_do_not_depend_on_the_form_of_a_vertex_set(D, e_x):
    cfg = cfg4(trials=16, seed=44)
    xs = split_by_degree(D)
    assert xs
    gr = min_gap_partition(D, xs)

    def results(x, x1, x2):
        g = min_gap_partition(D, x)
        tr = essential_tight_components(D, x)
        cand = CandidateXPartition("MINGAP", x1, x2, Fraction(5, 14))
        e12s, e21s, words = extension_trial_cuts(D, cand, cfg)
        cert = build_certificate(D, g, tr, cfg, candidates=[cand])
        return (
            g, tr.to_jsonable(),
            e12s.tolist(), e21s.tolist(), words.tolist(),
            extend_partition_randomized(D, cand, cfg),
            json.dumps(cert.to_jsonable(), sort_keys=True),
        )

    expected = results(xs, gr.x1, gr.x2)
    assert expected[0] == gr
    assert e_between(D, xs, xs) == e_x
    # with e(X) = 0 the certificate counts |Y|, which a repeated id must not move
    assert ('"gap-le-ysize"' in expected[-1]) == (e_x == 0)
    for forms in zip(*map(vertex_set_forms, (xs, gr.x1, gr.x2))):
        assert results(*forms) == expected
    json.dumps(partition(D, cfg).to_jsonable())  # a numpy scalar would raise

