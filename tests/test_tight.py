"""Tight components: blocks, odd-clique tests, essential counting."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import judipart.tight as tight_mod
from helpers import (
    arc_list,
    complement,
    hub_digraph,
    naive_blocks,
    naive_components,
    naive_tight,
    naive_tight_report,
    naive_underlying,
)
from judipart import (
    EngineConfig,
    build_certificate,
    essential_tight_components,
    from_arc_list,
    gen_eulerian_complete,
    gen_random_minout,
    gen_tight_union,
    min_gap_partition,
    partition,
    split_by_degree,
)


def report(D, ys) -> dict:
    """The tight record of D[ys], X being the complement of ys."""
    return essential_tight_components(D, complement(D.n, ys)).to_jsonable()


def all_tight(D, vs) -> bool:
    """Every underlying component of D[vs] is tight."""
    return all(report(D, vs)["tight"])


def dfs_answers(D, vs) -> list[bool]:
    """The block test's answer on each underlying component of D[vs] that has
    an edge, run from its smallest vertex with the adjacency of D[vs], after
    checking it against naive_tight on the same components."""
    naive = naive_underlying(D, vs)
    adj = {v: sorted(ws) for v, ws in naive.items()}
    rep = essential_tight_components(D, complement(D.n, vs))
    got = [tight_mod._blocks_are_odd_cliques(adj, root)
           for root in rep.components.tolist() if adj[root]]
    assert got == [naive_tight(naive, comp) for comp in naive_components(naive)
                   if len(comp) > 1]
    return got


def test_single_vertex_is_tight():
    D = from_arc_list(3, [(1, 2)])
    rep = essential_tight_components(D, [])
    # a single vertex is tight; a lone edge is an even clique
    assert rep.to_jsonable() == {"tau": 1, "components": [[0], [1, 2]],
                                 "tight": [True, False], "essential": [True, False]}
    assert rep.components.tolist() == [0, 1]
    assert rep.component_of.tolist() == [0, 1, 1]
    assert rep.tight_flags.dtype == rep.essential_flags.dtype == bool
    assert type(rep.tau) is int


def test_triangle_variants():
    tri = [(0, 1), (1, 2), (2, 0)]
    D = from_arc_list(3, tri)
    rep = report(D, range(3))
    assert rep["tight"] == [True] and rep["essential"] == [True]

    # anti-parallel pair collapses in the underlying graph: still one tight
    # triangle, no longer essential
    E = from_arc_list(3, tri + [(1, 0)])
    rep2 = report(E, range(3))
    assert rep2 == {"tau": 0, "components": [[0, 1, 2]],
                    "tight": [True], "essential": [False]}


def test_four_cycle_and_pendant_are_not_tight():
    C4 = from_arc_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not all_tight(C4, (0, 1, 2, 3))
    pend = from_arc_list(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert not all_tight(pend, (0, 1, 2, 3))
    assert dfs_answers(pend, (0, 1, 2, 3)) == [False]  # the K2 2-3 is popped first


def test_two_triangles_sharing_a_vertex():
    D = from_arc_list(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert dfs_answers(D, (0, 1, 2, 3, 4)) == [True]
    assert all_tight(D, (0, 1, 2, 3, 4))


def test_disconnected_sets_judge_every_component():
    D = from_arc_list(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    assert not all_tight(D, (0, 1, 2, 3, 4))  # the edge 3-4 is an even clique
    assert dfs_answers(D, (0, 1, 2, 3, 4)) == [True, False]
    assert all_tight(D, (0, 1, 2, 3))  # triangle plus an isolated vertex
    assert dfs_answers(D, (0, 1, 2, 3)) == [True]  # no DFS from vertex 3
    E = from_arc_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert all_tight(E, range(6))
    assert dfs_answers(E, range(6)) == [True, True]


def test_block_test_stops_at_the_first_block_that_is_no_odd_clique():
    # vertex 0 joins a C5, whose block comes off the edge stack first, to a
    # triangle, an odd clique; parity and size leave the component to the DFS
    D = from_arc_list(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                          (0, 5), (5, 6), (6, 0)])
    assert dfs_answers(D, range(7)) == [False]
    assert report(D, range(7)) == naive_tight_report(D, range(7))
    read = []

    class Recording(dict):
        def __getitem__(self, v):
            read.append(v)
            return super().__getitem__(v)

    adj = Recording((v, sorted(ws)) for v, ws in naive_underlying(D, range(7)).items())
    assert not tight_mod._blocks_are_odd_cliques(adj, 0)
    assert sorted(read) == [0, 1, 2, 3, 4]  # the triangle's 5 and 6 are never entered


def test_odd_cliques_are_tight():
    for q in (5, 7):
        D = gen_eulerian_complete(q)
        assert all_tight(D, tuple(range(q)))


def test_tight_union_component_census():
    D = gen_tight_union(4, copies=3)
    rep = essential_tight_components(D, ())
    assert len(rep.components) == 4  # three small cliques and one big one
    assert rep.tight_flags.all()
    assert rep.essential_flags.all()
    assert rep.tau == 4


def test_tau_drops_by_one_with_an_anti_parallel_arc():
    D = from_arc_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    rep = essential_tight_components(D, ())
    assert rep.tau == 2
    E = from_arc_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (1, 0)])
    rep2 = essential_tight_components(E, ())
    assert rep2.tau == 1
    assert rep2.tight_flags.tolist() == [True, True]
    assert rep2.essential_flags.tolist() == [False, True]


def test_restriction_to_y_subset():
    # arcs leaving Y are invisible to the component structure
    D = from_arc_list(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 3)])
    rep = essential_tight_components(D, [3, 4])
    assert rep.to_jsonable()["components"] == [[0, 1, 2]]
    assert rep.component_of.tolist() == [0, 0, 0, -1, -1]  # X has no component
    assert rep.tau == 1


def test_agrees_with_naive_checker_on_randoms():
    rng = random.Random(77)
    for i in range(60):
        n = rng.randint(3, 10)
        D = gen_random_minout(n, 1, extra=rng.randint(0, n), seed=600 + i)
        if i % 2:
            ys = sorted(rng.sample(range(n), rng.randint(1, n)))
        else:
            ys = list(range(n))
        assert report(D, ys) == naive_tight_report(D, ys)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_blocks_partition_the_edges(seed):
    D = gen_random_minout(9, 1, extra=seed % 8, seed=seed)
    ys = list(range(9))
    adj = naive_underlying(D, ys)
    total_edges = sum(len(v) for v in adj.values()) // 2
    got = 0
    for comp in report(D, ys)["components"]:
        for verts, ecount in naive_blocks(adj, comp):
            got += ecount
        # the DFS runs on components with an edge
        assert dfs_answers(D, comp) == ([naive_tight(adj, comp)] if len(comp) > 1 else [])
    assert got == total_edges


@st.composite
def glued_pieces(draw):
    """(D, Y): cliques K_q and cycles C_k glued at cut vertices into trees of
    blocks, randomly oriented, with anti-parallel pairs, relabelled, and a Y
    that is everything, a subset, nothing, or only isolated vertices."""
    edges: set[tuple[int, int]] = set()
    n = 0
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["odd", "odd", "even", "cycle"]))
        if kind == "odd":
            q = draw(st.sampled_from([1, 3, 3, 5]))
        elif kind == "even":
            q = draw(st.sampled_from([2, 4, 6]))
        else:
            q = draw(st.integers(4, 7))
        # attach at an existing vertex (a cut vertex) or start a new component
        if n and draw(st.booleans()):
            piece = [draw(st.integers(0, n - 1))] + list(range(n, n + q - 1))
        else:
            piece = list(range(n, n + q))
        n = max(n, piece[-1] + 1)
        if kind == "cycle":
            pairs = [(piece[i], piece[(i + 1) % q]) for i in range(q)]
        else:
            pairs = [(u, v) for i, u in enumerate(piece) for v in piece[i + 1:]]
        edges.update((min(u, v), max(u, v)) for u, v in pairs)
    n += draw(st.integers(0, 3))  # isolated vertices
    arcs = []
    for u, v in sorted(edges):
        way = draw(st.sampled_from(["fwd", "back", "both"]))
        if way != "back":
            arcs.append((u, v))
        if way != "fwd":
            arcs.append((v, u))
    perm = draw(st.permutations(range(n)))
    D = from_arc_list(n, [(perm[u], perm[v]) for u, v in arcs])
    ymode = draw(st.sampled_from(["all", "all", "subset", "empty", "isolated"]))
    if ymode == "all":
        ys = list(range(n))
    elif ymode == "subset":
        ys = draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True)) if n else []
    elif ymode == "empty":
        ys = []
    else:
        ys = [v for v, k in enumerate(D.degrees().tolist()) if k == 0]
    return D, ys


@settings(max_examples=300, deadline=None)
@given(glued_pieces())
def test_agrees_with_naive_checker_on_glued_cliques_and_cycles(case):
    D, ys = case
    assert report(D, ys) == naive_tight_report(D, ys)


def test_block_dfs_runs_only_where_no_lemma_decides(monkeypatch):
    pieces = {
        "K5": [(a, b) for a in range(5) for b in range(a + 1, 5)],
        "P3": [(5, 6), (6, 7)],  # odd-degree ends
        "K4": [(a, b) for a in range(8, 12) for b in range(a + 1, 12)],  # odd degrees
        "C4": [(12, 13), (13, 14), (14, 15), (15, 12)],  # even vertex count
        "C5": [(16, 17), (17, 18), (18, 19), (19, 20), (20, 16)],
        "bowtie": [(21, 22), (22, 23), (23, 21), (23, 24), (24, 25), (25, 23)],
    }
    D = from_arc_list(26, [arc for arcs in pieces.values() for arc in arcs])
    seen = []
    real = tight_mod._blocks_are_odd_cliques

    def counting(adj, root):
        seen.append(root)
        return real(adj, root)

    monkeypatch.setattr(tight_mod, "_blocks_are_odd_cliques", counting)
    rep = essential_tight_components(D, ())
    assert rep.tau == 2
    assert seen == [16, 21]  # the DFS starts at C5's and the bowtie's smallest vertex
    seen.clear()
    # the full classification, made on the first read of a flag, runs the same DFS
    assert rep.tight_flags.tolist() == [True, False, False, False, False, True]
    assert seen == [16, 21]
    seen.clear()
    union = gen_tight_union(4, copies=20)
    assert essential_tight_components(union, ()).tau == 21
    assert seen == []


def _report_under(perm, n, arcs, ys):
    D = from_arc_list(n, [(perm[u], perm[v]) for u, v in arcs])
    return report(D, [perm[v] for v in ys])


@pytest.mark.parametrize("shape", ["path", "cycle"])
def test_large_path_and_cycle_reports_are_exact_under_relabelling(shape):
    # a path is the long-diameter case for the component labels; the cycle
    # has odd length, so neither parity rule settles it and the block DFS
    # walks all of it
    n = 10 ** 5 if shape == "path" else 10 ** 5 + 1
    arcs = [(i, i + 1) for i in range(n - 1)]
    if shape == "cycle":
        arcs.append((n - 1, 0))
    identity = list(range(n))
    shuffled = random.Random(11).sample(identity, n)
    whole = {"tau": 0, "components": [identity], "tight": [False], "essential": [False]}
    for perm in (identity, shuffled):
        assert _report_under(perm, n, arcs, identity) == whole
    if shape == "cycle":
        return
    # drop path positions 0 and 2 (mod 1000): 100 isolated vertices and 100
    # segments of 997 vertices
    ys = [v for v in identity if v % 1000 not in (0, 2)]
    segments = [[1]] + [list(range(s, s + 997)) for s in range(3, n, 1000)]
    segments += [[s] for s in range(1001, n, 1000)]
    for perm in (identity, shuffled):
        comps = sorted(sorted(perm[v] for v in seg) for seg in segments)
        flags = [len(c) == 1 for c in comps]
        assert _report_under(perm, n, arcs, ys) == {
            "tau": 100, "components": comps, "tight": flags, "essential": flags}


# --- tau is counted over the good vertices alone ----------------------------

def counted_tau(D, x, naive=True) -> int:
    """tau as counted, read before anything classifies the components, after
    checking it against the full classification and, when naive is set, the
    brute-force one (which enumerates cycles: small sparse graphs only)."""
    rep = essential_tight_components(D, x)
    tau = rep.tau
    assert "_classes" not in vars(rep)  # nothing classified yet
    assert tau == int(rep.essential_flags.sum())
    if naive:
        assert tau == naive_tight_report(D, complement(D.n, x))["tau"]
    return tau


@st.composite
def random_graph_and_x(draw):
    """A random digraph on up to 9 vertices and 16 arcs, anti-parallel pairs
    and isolated vertices allowed, with a random X."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16)) if pairs else []
    x = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    return from_arc_list(n, arcs), x


@settings(max_examples=300, deadline=None)
@given(random_graph_and_x())
def test_counted_tau_is_the_full_count_on_random_graphs(case):
    counted_tau(*case)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 4), st.data())
def test_counted_tau_on_tight_unions_with_anti_parallel_pairs(d, copies, data):
    D = gen_tight_union(d, copies)
    arcs = arc_list(D)
    flipped = data.draw(st.lists(st.sampled_from(arcs), unique=True, max_size=4))
    E = from_arc_list(D.n, arcs + [(v, u) for u, v in flipped])
    x = data.draw(st.sampled_from([(), tuple(range(copies * (2 * d - 1), D.n))]))
    assert counted_tau(E, x) <= counted_tau(D, x)


def test_counted_tau_fixed_cases(monkeypatch):
    seen = []
    real = tight_mod._blocks_are_odd_cliques

    def counting(adj, root):
        seen.append(root)
        return real(adj, root)

    monkeypatch.setattr(tight_mod, "_blocks_are_odd_cliques", counting)
    # a bowtie of one-way triangles: every vertex good, nothing dies, and
    # neither lemma settles it, so the count reaches the block DFS
    bowtie = from_arc_list(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert essential_tight_components(bowtie, ()).tau == 1
    assert seen == [0]
    # the same with every arc anti-parallel: good, live, tight, not essential
    both = from_arc_list(5, arc_list(bowtie) + [(v, u) for u, v in arc_list(bowtie)])
    assert counted_tau(both, ()) == 0

    # 300 triangles in a chain, every vertex of even degree, then one arc to
    # a vertex of degree 1: only the far end is dead at first, and the
    # labelling carries that to the whole chain
    k = 300
    chain = [(2 * i + a, 2 * i + b) for i in range(k) for a, b in ((0, 1), (1, 2), (2, 0))]
    n = 2 * k + 2
    assert counted_tau(from_arc_list(n - 1, chain), (), naive=False) == 1
    tail = from_arc_list(n, chain + [(2 * k, 2 * k + 1)])
    assert counted_tau(tail, (), naive=False) == 0
    # an X holding the odd end splits it off: the chain is one tight component
    assert counted_tau(tail, [2 * k + 1], naive=False) == 1
    # X through the chain leaves two pieces whose ends have odd degree in Y
    assert counted_tau(tail, [k], naive=False) == 0
    assert counted_tau(tail, [2 * k - 1], naive=False) == 0  # a K2 is cut off

    isolated = from_arc_list(6, [(0, 1), (1, 2), (2, 0)])
    assert counted_tau(isolated, ()) == 4
    assert counted_tau(isolated, [0, 4]) == 2  # vertices 3 and 5; 1-2 is a K2
    assert counted_tau(from_arc_list(0, []), ()) == 0
    assert counted_tau(isolated, range(6)) == 0  # Y empty
    rep = essential_tight_components(from_arc_list(0, []), ())
    assert rep.to_jsonable() == {"tau": 0, "components": [], "tight": [], "essential": []}


def test_partition_and_certificate_read_tau_alone(monkeypatch):
    """Neither partition nor build_certificate classifies the components;
    to_jsonable does, on first use."""
    def refuse(self):
        raise AssertionError("the full classification ran")

    monkeypatch.setattr(tight_mod.TightReport, "_classes", property(refuse))
    D = hub_digraph(73, 3, seed=44)
    cfg = EngineConfig(d=4, trials=16, seed=44)
    x = split_by_degree(D)
    assert x
    out = partition(D, cfg)
    tr = essential_tight_components(D, x)
    cert = build_certificate(D, min_gap_partition(D, x), tr, cfg)
    assert out.certificate.bundle.tau == cert.bundle.tau == tr.tau
    with pytest.raises(AssertionError, match="classification ran"):
        tr.to_jsonable()
    monkeypatch.undo()
    rec = tr.to_jsonable()
    assert rec["tau"] == sum(rec["essential"]) == tr.tau
    assert sum(map(len, rec["components"])) == D.n - len(x)
