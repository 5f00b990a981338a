"""Digraph container, counting helpers, the vertex-split check, and
edge-list round trips."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import arc_codes, vertex_stats
from judipart import (
    Bipartition,
    CandidateXPartition,
    Digraph,
    DuplicateArcError,
    EdgeListParseError,
    LoopArcError,
    PartitionError,
    EngineConfig,
    TooLargeError,
    VertexOutOfRangeError,
    build_certificate,
    compute_bundle,
    cut_counts,
    e_between,
    essential_tight_components,
    exact_min_gap,
    extend_partition_randomized,
    extension_trial_cuts,
    format_edge_list,
    from_arc_list,
    gen_random_minout,
    gap,
    load_edge_list,
    max_degree,
    mf_mb,
    min_gap_partition,
    min_outdegree,
    parse_edge_list,
    save_edge_list,
)


def arcs_strategy(max_n=10):
    def build(n):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        return st.tuples(st.just(n), st.lists(st.sampled_from(pairs), unique=True, max_size=30))
    return st.integers(min_value=2, max_value=max_n).flatmap(build)


def test_basic_construction():
    D = from_arc_list(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
    assert D.n == 4 and D.m == 4
    assert D.out_degrees.tolist() == [1, 1, 1, 1]
    assert D.in_degrees.tolist() == [2, 1, 1, 0]
    assert sorted(D.out_neighbors(0)) == [1]
    assert sorted(D.in_neighbors(0)) == [2, 3]
    assert D.degree(0) == 3
    assert arc_codes(D) == {0 * 4 + 1, 1 * 4 + 2, 2 * 4 + 0, 3 * 4 + 0}


def assert_adjacency_matches_arc_scan(D):
    """incidence(), out_neighbors and in_neighbors against per-vertex lists
    built by scanning the arcs in order."""
    outs = [[] for _ in range(D.n)]
    ins = [[] for _ in range(D.n)]
    for u, v in zip(D.tails.tolist(), D.heads.tolist()):
        outs[u].append(v)
        ins[v].append(u)
    indptr, ends = D.incidence()
    assert D.incidence() is D.incidence()
    sizes = [len(o) + len(i) for o, i in zip(outs, ins)]
    assert indptr.tolist() == np.cumsum([0] + sizes).tolist()
    assert ends.tolist() == [w for o, i in zip(outs, ins) for w in o + i]
    for v in range(D.n):
        assert D.out_neighbors(v).tolist() == outs[v]
        assert D.in_neighbors(v).tolist() == ins[v]


@settings(max_examples=80, deadline=None)
@given(arcs_strategy(), st.randoms(use_true_random=False))
def test_incidence_lists_out_then_in_neighbours(case, rnd):
    n, arcs = case
    anti = [(v, u) for u, v in arcs[::2] if (v, u) not in arcs]
    arcs = arcs + anti  # anti-parallel pairs
    rnd.shuffle(arcs)
    assert_adjacency_matches_arc_scan(from_arc_list(n, arcs))


@pytest.mark.parametrize("n, arcs", [
    pytest.param(4, [(0, 1), (1, 0), (2, 1)], id="isolated-vertex"),
    pytest.param(3, [], id="no-arcs"),
    pytest.param(0, [], id="no-vertices"),
])
def test_incidence_on_sparse_graphs(n, arcs):
    assert_adjacency_matches_arc_scan(from_arc_list(n, arcs))


def test_construction_rejects_bad_input():
    with pytest.raises(LoopArcError):
        from_arc_list(2, [(0, 0)])
    with pytest.raises(DuplicateArcError):
        from_arc_list(2, [(0, 1), (0, 1)])
    # the first repeat in arc order is named, not the smallest repeated arc
    with pytest.raises(DuplicateArcError, match=r"^duplicate arc \(2, 1\)$"):
        from_arc_list(3, [(0, 2), (2, 1), (2, 1), (0, 2)])
    with pytest.raises(VertexOutOfRangeError):
        from_arc_list(2, [(0, 2)])
    with pytest.raises(VertexOutOfRangeError):
        from_arc_list(-1, [])


def test_construction_refuses_non_integer_and_oversize_ids():
    with pytest.raises(VertexOutOfRangeError):
        from_arc_list(3, [(0.7, 1.9), (2, 0)])  # built the arc (0, 1)
    with pytest.raises(VertexOutOfRangeError):
        from_arc_list(3, [(0, 10**20)])  # raised OverflowError
    with pytest.raises(VertexOutOfRangeError):
        from_arc_list(3, [(0, 2**63)])
    with pytest.raises(VertexOutOfRangeError):
        from_arc_list(3, np.array([[0.0, 1.0]]))
    with pytest.raises(VertexOutOfRangeError):
        from_arc_list(3, np.array([[0, 3]], dtype=np.uint64))


def test_construction_refuses_unaddressable_vertex_counts():
    # n + 1 int64 entries per array must stay addressable, checked before
    # any allocation (2**62 used to end in numpy's "array is too big")
    limit = np.iinfo(np.intp).max // 8
    for n in (2**62, limit, np.int64(limit)):
        with pytest.raises(TooLargeError):
            from_arc_list(n, [])
        with pytest.raises(TooLargeError):
            parse_edge_list(f"{n} 1\n0 1\n")


def test_construction_takes_arrays_and_iterables_alike():
    pairs = [(0, 1), (2, 0), (1, 2)]
    D = from_arc_list(3, pairs)
    for arcs in (np.array(pairs), np.array(pairs, dtype=np.int32),
                 np.array(pairs, dtype=np.uint8), zip([0, 2, 1], [1, 0, 2]),
                 (p for p in pairs)):
        E = from_arc_list(3, arcs)
        assert E == D and E.tails.dtype == np.int64
    empty = from_arc_list(3, np.zeros((0, 2), dtype=np.int64))
    assert empty == from_arc_list(3, []) and empty.m == 0
    with pytest.raises(EdgeListParseError):
        from_arc_list(3, np.array([[0, 1, 2]]))


def test_vertex_stats_and_degree_extremes():
    D = from_arc_list(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    stats = vertex_stats(D)
    assert stats[0].dplus == 2 and stats[0].dminus == 0
    assert stats[0].splus == 2 and stats[0].s == 2
    assert stats[1].degree == 3 and stats[1].s == 1
    assert max_degree(D) == 3
    assert min_outdegree(D) == 1


def test_e_between_matches_double_loop():
    D = gen_random_minout(9, 2, extra=5, seed=3)
    codes = arc_codes(D)
    a, b = [0, 2, 4, 6], [1, 3, 5, 7, 8]
    want = sum(1 for u in a for v in b if u * D.n + v in codes)
    assert e_between(D, a, b) == want
    assert e_between(D, [], b) == 0
    assert e_between(D, a, a) == sum(
        1 for u in a for v in a if u * D.n + v in codes)


def test_float_vertex_ids_are_rejected():
    D = from_arc_list(5, [(2, 3), (1, 2)])
    with pytest.raises(VertexOutOfRangeError):
        e_between(D, [2.5], [3])  # truncated to vertex 2, it counted 1
    with pytest.raises(VertexOutOfRangeError):
        Bipartition.from_side1(5, [1.7])  # truncated, it put vertex 1 on side 1
    with pytest.raises(VertexOutOfRangeError):
        e_between(D, [2.0], [3])
    # integer ids in any container still work
    assert e_between(D, np.array([2], dtype=np.int32), {3}) == 1
    assert e_between(D, (v for v in [1, 2]), range(2, 4)) == 2
    assert e_between(D, [], np.array([], dtype=np.int64)) == 0
    assert Bipartition.from_side1(5, np.array([1], dtype=np.uint8)).side1() == (1,)


def test_bipartition_and_cut_counts():
    D = from_arc_list(4, [(0, 1), (1, 0), (2, 3), (0, 3)])
    P = Bipartition.from_side1(4, [0, 2])
    assert P.side1() == (0, 2) and P.side2() == (1, 3)
    c = cut_counts(D, P)
    # arcs 0->1 (1->2 sides), 2->3 (1->2), 0->3 (1->2), 1->0 (2->1)
    assert (c.e12, c.e21, c.minval) == (3, 1, 1)
    f = P.flipped()
    cf = cut_counts(D, f)
    assert (cf.e12, cf.e21) == (1, 3)
    with pytest.raises(PartitionError):
        Bipartition([1, 3])
    with pytest.raises(PartitionError):
        Bipartition([0, 1])
    assert Bipartition([]).n == 0
    with pytest.raises(PartitionError):
        cut_counts(D, Bipartition([1, 2]))


def test_edge_list_round_trip(tmp_path):
    D = gen_random_minout(12, 2, extra=4, seed=8)
    text = format_edge_list(D)
    E = parse_edge_list(text)
    assert E.n == D.n and arc_codes(E) == arc_codes(D)
    path = tmp_path / "g.txt"
    save_edge_list(D, path)
    F = load_edge_list(path)
    assert arc_codes(F) == arc_codes(D)


def test_parse_edge_list_accepts_comments_and_rejects_garbage():
    D = parse_edge_list("# comment\n3 2\n0 1\n\n# more\n1 2\n")
    assert D.n == 3 and D.m == 2
    with pytest.raises(EdgeListParseError):
        parse_edge_list("")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3 2\n0 1\n")  # header promises 2 arcs
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3 1\n0 x\n")
    with pytest.raises(LoopArcError):
        parse_edge_list("2 1\n0 0\n")  # loop kept as its own category


def test_parse_edge_list_reads_inline_comments_and_int64_only():
    D = parse_edge_list("3 2 # n m\r\n\t0\t1#first\n 1  2 \n# end")
    assert D == from_arc_list(3, [(0, 1), (1, 2)])
    assert parse_edge_list("3 1\r0 1\r") == from_arc_list(3, [(0, 1)])
    assert parse_edge_list("+3 1\n00 +1\n") == from_arc_list(3, [(0, 1)])
    for text, lineno in [("3 1\n1_000 1\n", 2), ("3 1\n0 9223372036854775808\n", 2),
                         ("-9223372036854775809 0\n", 1), ("3 1\n0 1 2\n", 2),
                         ("# c\n3\n", 2), ("3 1\n0 \u0661\n", 2)]:
        with pytest.raises(EdgeListParseError, match=f"^line {lineno}: "):
            parse_edge_list(text)
    with pytest.raises(EdgeListParseError, match="no header"):
        parse_edge_list("# only a comment\n\n")
    with pytest.raises(EdgeListParseError, match="^line 2: header"):
        parse_edge_list("\n-3 0\n")


# a line broken in one way, each a parse error wherever it stands
CORRUPT_LINES = ["7", "0 1 2", "1 2 3 4", "0 x", "1.5 2", "1_000 2", "0x1 1",
                 "9223372036854775808 1", "0 -9223372036854775809"]


@st.composite
def decorated_edge_lists(draw):
    """(D, lines, line ends, data line numbers): format_edge_list(D) with
    blank and comment lines, inline comments, tabs and mixed \n / \r\n."""
    n, arcs = draw(arcs_strategy())
    D = from_arc_list(n, arcs)
    lines, data = [], []
    for line in format_edge_list(D).splitlines():
        lines += draw(st.lists(st.sampled_from(["", " \t", "# note", "\t# 1 2 3"]),
                               max_size=2))
        u, v = line.split()
        space = st.sampled_from(["", " ", "\t", " \t "])
        comment = st.sampled_from(["", "# c", " # 4 5", "\t#"])
        data.append(len(lines) + 1)
        lines.append(draw(space) + u + draw(space.filter(bool)) + v
                     + draw(space) + draw(comment))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    return D, lines, ends, data


@settings(max_examples=60, deadline=None)
@given(decorated_edge_lists(), st.data())
def test_parse_survives_decoration_and_names_a_corrupted_line(case, data):
    D, lines, ends, data_lines = case
    assert parse_edge_list("".join(map(str.__add__, lines, ends))) == D
    lineno = data.draw(st.sampled_from(data_lines))
    broken = lines.copy()
    broken[lineno - 1] = data.draw(st.sampled_from(CORRUPT_LINES))
    with pytest.raises(EdgeListParseError, match=f"^line {lineno}: "):
        parse_edge_list("".join(map(str.__add__, broken, ends)))


@settings(max_examples=40, deadline=None)
@given(arcs_strategy())
def test_handshake_identities(data):
    n, arcs = data
    D = from_arc_list(n, arcs)
    assert int(D.out_degrees.sum()) == D.m
    assert int(D.in_degrees.sum()) == D.m
    assert int(D.out_degrees[3:].sum()) == sum(
        1 for (u, _) in arcs if u >= 3)


@settings(max_examples=40, deadline=None)
@given(arcs_strategy(), st.integers(min_value=0, max_value=2 ** 10 - 1))
def test_cut_decomposition(data, mask):
    n, arcs = data
    D = from_arc_list(n, arcs)
    side1 = [v for v in range(n) if mask >> v & 1]
    P = Bipartition.from_side1(n, side1)
    c = cut_counts(D, P)
    within = e_between(D, side1, side1) + e_between(D, P.side2(), P.side2())
    assert c.e12 + c.e21 + within == D.m
    assert c.e12 == e_between(D, side1, P.side2())
    assert c.minval == min(c.e12, c.e21)


@settings(max_examples=30, deadline=None)
@given(arcs_strategy())
def test_immutability(data):
    n, arcs = data
    D = from_arc_list(n, arcs)
    with pytest.raises(ValueError):
        D.out_degrees[0] = 99
    with pytest.raises(ValueError):
        D.tails[0] = 0


# (X, Y) on a 5-vertex graph, each broken in one way
BAD_SPLITS = {
    "overlap": ((3, 4), (0, 1, 2, 3)),
    "missing": ((3,), (0, 1, 2)),  # vertex 4 in neither
    "out_of_range": ((3, 4), (0, 1, 2, 5)),
    "negative": ((3, 4), (-1, 0, 1, 2)),
    "non_integer": ((3, 4), (0, 1, 2.5)),  # 2.5 must not pass as vertex 2
}
SPLIT_D = from_arc_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 3), (3, 0)])
SPLIT_GR = min_gap_partition(SPLIT_D, (3, 4), (0, 1, 2))
SPLIT_TR = essential_tight_components(SPLIT_D, (0, 1, 2))
SPLIT_CFG = EngineConfig(d=1, trials=4)


def _cand(x):
    return CandidateXPartition("MINGAP", x[:1], x[1:], Fraction(1, 2))


# entry point -> (call on (D, x, y), error, whether it takes a whole split);
# one that takes a single vertex set can only see the range broken
SPLIT_ENTRY_POINTS = {
    "gap": (lambda D, x, y: gap(D, x[:1], x[1:], y), PartitionError, True),
    "mf_mb": (lambda D, x, y: mf_mb(D, x[:1], x[1:], y), PartitionError, True),
    "min_gap_partition": (min_gap_partition, PartitionError, True),
    "exact_min_gap": (exact_min_gap, PartitionError, True),
    "extension_trial_cuts": (
        lambda D, x, y: extension_trial_cuts(D, _cand(x), y, SPLIT_CFG),
        PartitionError, True),
    "extend_partition_randomized": (
        lambda D, x, y: extend_partition_randomized(D, _cand(x), y, SPLIT_CFG),
        PartitionError, True),
    "compute_bundle": (
        lambda D, x, y: compute_bundle(D, x, y, SPLIT_GR, SPLIT_TR, SPLIT_CFG),
        PartitionError, True),
    "build_certificate": (
        lambda D, x, y: build_certificate(D, x, y, SPLIT_GR, SPLIT_TR, SPLIT_CFG),
        PartitionError, True),
    "essential_tight_components": (
        lambda D, x, y: essential_tight_components(D, y), PartitionError, False),
    "e_between": (e_between, VertexOutOfRangeError, False),
    "from_side1": (
        lambda D, x, y: Bipartition.from_side1(D.n, y), VertexOutOfRangeError, False),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case)
    for entry, (_, _, whole) in SPLIT_ENTRY_POINTS.items()
    for case in BAD_SPLITS
    if whole or case in ("out_of_range", "negative", "non_integer")
])
def test_bad_split_raises_at_every_entry_point(entry, case):
    call, error, _ = SPLIT_ENTRY_POINTS[entry]
    x, y = BAD_SPLITS[case]
    with pytest.raises(error):
        call(SPLIT_D, x, y)
