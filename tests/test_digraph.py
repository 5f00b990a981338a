"""Digraph container, counting helpers, the vertex-split check, and
edge-list round trips."""
from __future__ import annotations

import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import arc_codes, reference_parse_edge_list, vertex_stats
from judipart import (
    Bipartition,
    CandidateXPartition,
    CutValue,
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
from judipart import digraph
from judipart.digraph import (
    _CENSUS_BLOCK,
    _SCAN_BLOCK,
    _block_end,
    arc_census,
    code_dtype,
    index_dtype,
    stable_order,
    vertex_mask,
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
    indptr, ends = D.incidence()
    assert ends[indptr[0]:indptr[1]].tolist() == [1, 2, 3]  # out and in, ascending
    assert D.degrees().tolist() == [3, 2, 2, 1]
    assert arc_codes(D) == {0 * 4 + 1, 1 * 4 + 2, 2 * 4 + 0, 3 * 4 + 0}


def assert_adjacency_matches_arc_scan(D):
    """incidence() against per-vertex lists built by scanning the arcs: each
    vertex's run is the sorted multiset of its out- and in-neighbours."""
    nbrs = [[] for _ in range(D.n)]
    for u, v in zip(D.tails.tolist(), D.heads.tolist()):
        nbrs[u].append(v)
        nbrs[v].append(u)
    indptr, ends = D.incidence()
    assert D.incidence() is D.incidence()
    assert indptr.tolist() == np.cumsum([0] + [len(a) for a in nbrs]).tolist()
    assert ends.tolist() == [w for a in nbrs for w in sorted(a)]


@settings(max_examples=80, deadline=None)
@given(arcs_strategy(), st.randoms(use_true_random=False))
def test_incidence_lists_the_sorted_neighbour_multiset(case, rnd):
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


@pytest.mark.parametrize("n, wide", [(2**16, np.uint32), (2**16 + 1, np.uint64)],
                         ids=["uint32-codes", "uint64-codes"])
def test_incidence_across_the_code_width_boundary(n, wide):
    """Codes key * n + other reach n^2 - 1: 2^32 - 1 at n = 2^16, the last
    n in uint32. Arcs at the top ids and anti-parallel pairs land in their
    runs either way, and both arrays stay int32."""
    assert code_dtype(n) is wide
    rng = np.random.default_rng(n)
    top = np.arange(n - 40, n)
    ends = np.concatenate((top, rng.integers(0, n, size=200), [0, 1, 2**16 - 1]))
    arcs = {(int(u), int(v)) for u, v in rng.choice(ends, size=(600, 2)) if u != v}
    arcs = sorted(arcs) + [(v, u) for u, v in sorted(arcs)[::3] if (v, u) not in arcs]
    arcs += [(n - 1, n - 2), (n - 2, n - 1)]  # the two largest codes
    order = rng.permutation(len(arcs))
    D = from_arc_list(n, [arcs[i] for i in order])
    assert_adjacency_matches_arc_scan(D)
    assert D.incidence()[0].dtype == D.incidence()[1].dtype == np.int32


def test_code_width_refuses_n_past_two_to_the_32():
    assert code_dtype(0) is code_dtype(2**16) is np.uint32
    assert code_dtype(2**32) is np.uint64
    with pytest.raises(TooLargeError):
        code_dtype(2**32 + 1)


def test_incidence_build_holds_only_the_codes_and_the_ends():
    """At n = 2 * 10^5 and m = 10^6 the build's tracemalloc peak is at most
    the 2m uint64 codes plus the 2m int32 ends, and 10 %: the build holds
    no other array of 2m entries."""
    D = gen_random_minout(200_000, 5, seed=3)
    assert D.m == 10**6 and code_dtype(D.n) is np.uint64
    tracemalloc.start()
    try:
        D.incidence()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = 2 * D.m * (8 + 4)
    assert peak <= 1.1 * held, (peak, held)


@pytest.mark.parametrize("bound", [1, 2, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**40])
def test_stable_order_is_a_stable_argsort(bound):
    rng = np.random.default_rng(bound)
    for size in (0, 1, 7, 3000):
        keys = rng.integers(0, bound, size=size)
        keys[: size // 3] = keys[size // 3: 2 * (size // 3)]  # ties
        want = np.argsort(keys, kind="stable").tolist()
        for dtype in (np.int64, np.int32) if bound <= 2**31 else (np.int64,):
            assert stable_order(keys.astype(dtype), bound).tolist() == want


def test_index_width_switches_at_two_to_the_31():
    assert index_dtype(0) is np.int32
    assert index_dtype(2**31 - 1) is np.int32
    assert index_dtype(2**31) is np.int64
    assert index_dtype(2**40) is np.int64


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


def test_out_of_range_error_names_the_first_bad_arc():
    """The min/max screen finds that some id is out of range; the message
    still names the first bad arc in arc order, not the one holding the
    extreme id."""
    arcs = [(0, 1), (1, 9), (2, 3), (-1, 2), (4, 7)]
    for given in (arcs, np.array(arcs)):
        with pytest.raises(VertexOutOfRangeError, match=r"^arc \(1, 9\) out of range for n=5$"):
            from_arc_list(5, given)
    with pytest.raises(VertexOutOfRangeError, match=r"^arc \(-1, 2\) out of range"):
        from_arc_list(5, [(0, 1), (-1, 2), (1, 9)])
    with pytest.raises(VertexOutOfRangeError, match=r"^arc \(0, 0\) out of range for n=0$"):
        from_arc_list(0, [(0, 0)])


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


@pytest.mark.parametrize("m", [_CENSUS_BLOCK - 1, _CENSUS_BLOCK, _CENSUS_BLOCK + 1,
                               2 * _CENSUS_BLOCK + 1])
def test_arc_census_across_arc_blocks(m):
    """The census taken a block of arcs at a time is the one-pass count."""
    n = 2**15
    D = gen_random_minout(n, m // n, extra=m % n, seed=m)
    assert D.m == m
    in_s = np.random.default_rng(m).random(n) < 0.3
    to_s, from_s = arc_census(D, in_s)
    assert to_s.tolist() == np.bincount(D.tails[in_s[D.heads]], minlength=n).tolist()
    assert from_s.tolist() == np.bincount(D.heads[in_s[D.tails]], minlength=n).tolist()


def test_arc_census_on_either_side_of_half():
    """S up to n/2 is counted directly, a larger S from its complement; both
    give the per-vertex counts, with anti-parallel pairs and isolated vertices."""
    n = 12
    arcs = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (4, 5), (5, 4), (5, 6),
            (6, 7), (7, 4), (8, 1), (2, 8), (9, 3)]  # 10 and 11 isolated
    D = from_arc_list(n, arcs)
    order = np.random.default_rng(5).permutation(n)
    for size in (0, n // 2, n // 2 + 1, n):
        in_s = np.zeros(n, dtype=bool)
        in_s[order[:size]] = True
        to_s, from_s = arc_census(D, in_s)
        assert to_s.tolist() == [sum(u == v and in_s[w] for u, w in arcs) for v in range(n)]
        assert from_s.tolist() == [sum(w == v and in_s[u] for u, w in arcs) for v in range(n)]


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


@pytest.mark.parametrize("empty", [(), [], np.array([], dtype=float), (v for v in ())],
                         ids=["tuple", "list", "float-array", "generator"])
def test_vertex_mask_of_an_empty_set(empty):
    mask = vertex_mask(5, empty, "X")
    assert mask.dtype == np.bool_ and mask.tolist() == [False] * 5
    assert vertex_mask(0, [], "X").shape == (0,)
    with pytest.raises(VertexOutOfRangeError, match="non-integer"):
        vertex_mask(5, [2.5], "X")
    with pytest.raises(VertexOutOfRangeError, match="non-integer"):
        vertex_mask(5, np.array([2.5]), "X")


@pytest.mark.parametrize("vs", [[True], [3, True], (3, np.True_), {3, True}, [0, False, 2]],
                         ids=["lone", "list", "tuple-numpy", "set", "false"])
def test_vertex_mask_refuses_a_bool_id_beside_ints(vs):
    """asarray makes [3, True] an int array; the bool is still refused, with
    the message a lone bool gets."""
    with pytest.raises(VertexOutOfRangeError, match=r"non-integer vertex ids \(bool\)"):
        vertex_mask(5, vs, "X")
    D = gen_random_minout(8, 2, seed=1)
    for solve in (min_gap_partition, exact_min_gap):
        with pytest.raises(PartitionError, match=r"\(bool\)"):
            solve(D, vs)


def test_bipartition_and_cut_counts():
    D = from_arc_list(4, [(0, 1), (1, 0), (2, 3), (0, 3)])
    P = Bipartition.from_side1(4, [0, 2])
    assert P.side1() == (0, 2) and P.sides.tolist() == [1, 2, 1, 2]
    c = cut_counts(D, P)
    # arcs 0->1 (1->2 sides), 2->3 (1->2), 0->3 (1->2), 1->0 (2->1)
    assert (c.e12, c.e21, c.minval) == (3, 1, 1)
    cf = cut_counts(D, Bipartition(3 - P.sides))
    assert (cf.e12, cf.e21) == (1, 3)
    with pytest.raises(PartitionError):
        Bipartition([1, 3])
    with pytest.raises(PartitionError):
        Bipartition([0, 1])
    assert Bipartition([]).n == 0
    assert Bipartition(np.array([], dtype=float)).n == 0
    # tested before the uint8 cast: none of these is read as side 1
    for bad in ([257, 2], np.array([257, 2]), np.array([-255, 2]), [1.5, 2],
                np.array([1.0, 2.0]), [True, True], [2**70, 1], [[1], [1, 2]], [1, [2]]):
        with pytest.raises(PartitionError):
            Bipartition(bad)
    assert Bipartition(np.array([2, 1], dtype=np.int8)).sides.tolist() == [2, 1]
    with pytest.raises(PartitionError):
        cut_counts(D, Bipartition([1, 2]))


def test_arcless_graph_has_zero_cut_and_max_degree():
    D = from_arc_list(5, [])
    for side1 in ([], [0, 3], range(5)):
        cut = cut_counts(D, Bipartition.from_side1(5, side1))
        assert cut == CutValue(0, 0, 0) and type(cut.e12) is int
    assert max_degree(D) == 0 and type(max_degree(D)) is int


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


def parse_outcome(parse, text):
    """A parser's Digraph, or the type and message of what it raised."""
    try:
        return parse(text)
    except Exception as exc:  # the outcome compared, not handled
        return type(exc), str(exc)


INT64_MAX, INT64_MIN = "9223372036854775807", "-9223372036854775808"
# digits, signs, every ASCII str.isspace() character and some wider ones, the
# comment mark, characters no integer holds, and 19- and 20-digit tokens
PARSE_ALPHABET = (list("0123456789+-") + list(" \t\n\v\f\r\x1c\x1d\x1e\x1f")
                  + ["\x85", "\xa0", "\u2000", "\u2028", "\u3000", "#", "\r\n", "x",
                     ".", "\x00", "\u0661", INT64_MAX, INT64_MIN, "9223372036854775808",
                     "-9223372036854775809", "18446744073709551616",
                     "00000000000000000001"])


@st.composite
def near_edge_lists(draw):
    """A short edge list with a few tokens of PARSE_ALPHABET dropped in."""
    rows = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=5))
    n = draw(st.sampled_from([3, 5]))
    text = list(f"{n} {len(rows)}\n" + "".join(f"{u} {v}\n" for u, v in rows))
    for token in draw(st.lists(st.sampled_from(PARSE_ALPHABET), max_size=3)):
        text.insert(draw(st.integers(0, len(text))), token)
    return "".join(text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(near_edge_lists(), st.lists(st.sampled_from(PARSE_ALPHABET),
                                              max_size=14).map("".join)),
       st.sampled_from([1, 3, 8, _SCAN_BLOCK]))
def test_parse_matches_the_loadtxt_reference(text, block):
    """The block check and np.fromstring accept the texts np.loadtxt accepted,
    into the same Digraph, and refuse the others with the same error, for
    any scan block size."""
    with mock.patch.object(digraph, "_SCAN_BLOCK", block):
        got = parse_outcome(parse_edge_list, text)
    assert got == parse_outcome(reference_parse_edge_list, text)


@pytest.mark.parametrize("text", [
    "0 +\n", "0 -\n", "3 1\n- 1\n", "3 1\n0 +1-\n", "3 1\n0 1+\n",
    f"3 0\n{INT64_MAX} 0\n", f"{INT64_MAX} 0\n", f"{INT64_MIN} 0\n", f"0 {INT64_MAX}\n",
    f"3 1\n0 {INT64_MAX}\n", f"3 1\n{INT64_MIN} 1\n", f"3 1\n0 000{INT64_MAX}\n",
    "3 1\n0 9223372036854775808\n", "3 1\n-9223372036854775809 1\n",
    "3 1\n0 99999999999999999999\n",
])
def test_parse_signs_and_int64_extremes_as_the_reference(text):
    """np.fromstring reads a lone sign as 0 and clamps a value beyond int64
    to an extreme; neither may change what is accepted."""
    assert parse_outcome(parse_edge_list, text) == parse_outcome(reference_parse_edge_list, text)


def test_parse_refuses_a_lone_sign():
    for text in ("0 +\n", "0 -\n", "3 1\n- 1\n", "3 1\n0 1 +\n"):
        with pytest.raises(EdgeListParseError, match=f"^line {text.count(chr(10))}: "):
            parse_edge_list(text)


def test_parse_reads_every_unicode_blank_inside_a_line():
    for blank in filter(str.isspace, map(chr, range(0x110000))):
        if blank not in "\n\r":
            text = f"2 1{blank}# c\n0{blank}{blank}1\n"
            assert parse_edge_list(text) == from_arc_list(2, [(0, 1)]), repr(blank)


def test_parse_wide_blank_neighbours_as_the_reference():
    """Only the wide blanks are blanked: a character one code point from one,
    or sharing bytes of its UTF-8 with one (U+201A, U+2680, U+00A1, a
    four-byte emoji), stays a stray byte, in a line, beside wide blanks, in a
    comment and as the text's last character."""
    wide = [c for c in map(chr, range(0x80, 0x3001)) if c.isspace()]
    chars = {chr(ord(c) + k) for c in wide for k in (-1, 0, 1)}
    chars |= {"\u201a", "\u2680", "\xa1", "\U0001f600"}
    for ch in sorted(chars):
        for text in (f"3 1\n0{ch}1\n", f"3 1{ch}\n0 1 #{ch}\n", f"3 1\n0 1{ch}",
                     f"3 1\n0\xa0{ch}\u30001\n"):
            assert parse_outcome(parse_edge_list, text) == parse_outcome(
                reference_parse_edge_list, text), repr(text)


def test_parse_names_a_bad_line_many_scan_blocks_deep():
    D = gen_random_minout(6000, 3, seed=4)
    lines = format_edge_list(D).splitlines()
    assert len("\n".join(lines)) > 2 * _SCAN_BLOCK
    for bad in ("0 1 2", "7", "0 x", "0 +", "1 9223372036854775808"):
        broken = lines.copy()
        broken[15000] = bad
        with pytest.raises(EdgeListParseError, match="^line 15001: "):
            parse_edge_list("\n".join(broken) + "\n")


def test_parse_across_scan_block_cuts():
    D = gen_random_minout(3000, 3, seed=2)
    body = format_edge_list(D)
    # a CRLF whose CR is the first block's last byte and whose LF starts the
    # second, after a first line of padding
    crlf = body.replace("\n", "\r\n")
    p = crlf.rindex("\r", 0, _SCAN_BLOCK - 8)
    text = "#" + "x" * (_SCAN_BLOCK - 4 - p) + "\r\n" + crlf
    raw = text.encode()
    assert raw[_SCAN_BLOCK - 1:_SCAN_BLOCK + 1] == b"\r\n"
    assert _block_end(raw, 0) == _SCAN_BLOCK
    assert parse_edge_list(text) == D == reference_parse_edge_list(text)
    # a comment after an arc whose line end is the first block's last byte
    q = body.rindex("\n", 0, _SCAN_BLOCK - 8)
    text = body[:q] + " #" + "c" * (_SCAN_BLOCK - 3 - q) + body[q:]
    raw = text.encode()
    assert raw[_SCAN_BLOCK - 2:_SCAN_BLOCK] == b"c\n"
    assert _block_end(raw, 0) == _SCAN_BLOCK
    assert parse_edge_list(text) == D == reference_parse_edge_list(text)
    # a comment longer than a block, then an arc
    text = "3 1\n# " + "#1 2 x" * _SCAN_BLOCK + "\n0 1\n"
    assert parse_edge_list(text) == from_arc_list(3, [(0, 1)]) == reference_parse_edge_list(text)


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
    side2 = [v for v in range(n) if v not in side1]
    within = e_between(D, side1, side1) + e_between(D, side2, side2)
    assert c.e12 + c.e21 + within == D.m
    assert c.e12 == e_between(D, side1, side2)
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


# vertex sets on a 5-vertex graph whose X is (3, 4), each broken in one way;
# an entry point that takes two parts gets x1 = x[:1] and x2 = x[1:]
BAD_SPLITS = {
    "overlap": (3, 4, 3),  # x1 = (3,), x2 = (4, 3)
    "missing": (3,),  # x1 = (3,), x2 = (): vertex 4 of X in neither
    "out_of_range": (3, 5),
    "negative": (-1, 3),
    "non_integer": (3, 4.0),  # 4.0 must not pass as vertex 4
}
SPLIT_D = from_arc_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 3), (3, 0)])
SPLIT_GR = min_gap_partition(SPLIT_D, (3, 4))
SPLIT_TR = essential_tight_components(SPLIT_D, (3, 4))
SPLIT_CFG = EngineConfig(d=1, trials=4)
ONE_SET = ("out_of_range", "negative", "non_integer")
TWO_PARTS = ONE_SET + ("overlap",)


def _cand(x):
    return CandidateXPartition("MINGAP", x[:1], x[1:], Fraction(1, 2))


# entry point -> (call on (D, x), error, the cases it can see); only a
# candidate handed to build_certificate must split one given X
SPLIT_ENTRY_POINTS = {
    "gap": (lambda D, x: gap(D, x[:1], x[1:]), PartitionError, TWO_PARTS),
    "mf_mb": (lambda D, x: mf_mb(D, x[:1], x[1:]), PartitionError, TWO_PARTS),
    "min_gap_partition": (min_gap_partition, PartitionError, ONE_SET),
    "exact_min_gap": (exact_min_gap, PartitionError, ONE_SET),
    "extension_trial_cuts": (
        lambda D, x: extension_trial_cuts(D, _cand(x), SPLIT_CFG),
        PartitionError, TWO_PARTS),
    "extend_partition_randomized": (
        lambda D, x: extend_partition_randomized(D, _cand(x), SPLIT_CFG),
        PartitionError, TWO_PARTS),
    "compute_bundle": (
        lambda D, x: compute_bundle(D, replace(SPLIT_GR, x=x), SPLIT_TR, SPLIT_CFG),
        PartitionError, ONE_SET),
    "build_certificate": (
        lambda D, x: build_certificate(D, SPLIT_GR, SPLIT_TR, SPLIT_CFG,
                                       candidates=[_cand(x)]),
        PartitionError, TWO_PARTS + ("missing",)),
    "essential_tight_components": (essential_tight_components, PartitionError, ONE_SET),
    "e_between": (lambda D, x: e_between(D, x, x), VertexOutOfRangeError, ONE_SET),
    "from_side1": (
        lambda D, x: Bipartition.from_side1(D.n, x), VertexOutOfRangeError, ONE_SET),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case)
    for entry, (_, _, cases) in SPLIT_ENTRY_POINTS.items()
    for case in BAD_SPLITS
    if case in cases
])
def test_bad_split_raises_at_every_entry_point(entry, case):
    call, error, _ = SPLIT_ENTRY_POINTS[entry]
    with pytest.raises(error):
        call(SPLIT_D, BAD_SPLITS[case])


def test_the_good_split_passes_every_entry_point():
    for call, _, _ in SPLIT_ENTRY_POINTS.values():
        call(SPLIT_D, (3, 4))
