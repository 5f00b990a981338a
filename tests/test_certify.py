"""Certificates: exact check records, regime gating, golden vector."""
from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from judipart import (
    CandidateXPartition,
    EngineConfig,
    PartitionError,
    build_certificate,
    certificate_checks,
    compute_bundle,
    e_between,
    essential_tight_components,
    eval_f_h,
    from_arc_list,
    gen_random_minout,
    gen_skew_d4,
    gen_skew_d6,
    mf_mb,
    min_gap_partition,
    partition,
    render_text,
    split_by_degree,
    verify_record,
)
from judipart.certify import (
    _STATEMENTS,
    CheckRecord,
    _evaluate,
)

from helpers import engine_corpus_50, hub_candidate_corpus, reference_check_sides

# the two records that are not arithmetic: a parity and a disjunction
NOT_ARITHMETIC = ("huge-odd", "d4k1-disjunction")

GOLDEN = Path(__file__).parent / "golden" / "skew_d4_n20_checks.json"
GOLDEN_ALL_IDS = Path(__file__).parent / "golden" / "skew_d6_n60_d4_checks.json"


def bundle_for(D, d, x=None):
    cfg = EngineConfig(d=d)
    xs = split_by_degree(D) if x is None else tuple(sorted(x))
    gr = min_gap_partition(D, xs)
    tr = essential_tight_components(D, xs)
    return compute_bundle(D, gr, tr, cfg), xs, gr, tr, cfg


def checks_by_id(bundle, ysize=None):
    """certificate_checks by id; |Y| is n - |huge| unless given."""
    if ysize is None:
        ysize = bundle.n - len(bundle.deltas)
    return {r.check_id: r for r in certificate_checks(bundle, ysize)}


def has_prefix(recs, prefix) -> bool:
    return any(rid.startswith(prefix) for rid in recs)


def test_golden_vector_still_reproduces():
    want = json.loads(GOLDEN.read_text())
    D = gen_skew_d4(20)
    cfg = EngineConfig(d=4, trials=16, seed=0)
    out = partition(D, cfg)

    def rec(c):
        return {"check_id": c.check_id, "lhs": c.lhs, "rhs": c.rhs,
                "comparison": c.comparison, "holds": c.holds, "meta": c.meta}

    assert [rec(c) for c in out.certificate.checks] == want["engine_checks"]
    got_fh = [
        {"label": s.label, "p": str(s.p), "f": str(s.f), "h": str(s.h)}
        for s in out.certificate.fh_values
    ]
    assert got_fh == want["fh_values"]


def test_every_record_of_the_all_ids_instance_is_pinned():
    """certify --gen skew-d6 --n 60 --x-auto --d 4 reaches all 34 ids: every
    record, its meta and the order of both are those of the golden file."""
    want = json.loads(GOLDEN_ALL_IDS.read_text())
    D = gen_skew_d6(60)
    gr = min_gap_partition(D, split_by_degree(D))
    cert = build_certificate(D, gr, essential_tight_components(D, gr.x), EngineConfig(d=4))
    got = [c.to_jsonable() for c in cert.checks]
    assert len({r["id"] for r in want}) == 34
    # the dumps compare key order too, meta's included
    assert json.dumps(got) == json.dumps(want)


def test_every_check_recomputes_from_stored_strings():
    D = gen_skew_d6(60, seed=2)
    bundle, xs, gr, tr, cfg = bundle_for(D, 6)
    cert = build_certificate(D, gr, tr, cfg)
    assert cert.checks
    for c in cert.checks:
        assert verify_record(c)
    bad = CheckRecord(
        check_id=cert.checks[0].check_id,
        statement=cert.checks[0].statement,
        lhs=cert.checks[0].lhs,
        rhs=cert.checks[0].rhs,
        comparison=cert.checks[0].comparison,
        holds=not cert.checks[0].holds,
        meta=cert.checks[0].meta,
    )
    assert not verify_record(bad)


def test_min_gap_bounds_regimes():
    D = gen_skew_d6(30, seed=1)
    bundle, *_ = bundle_for(D, 6, x=(0, 1, 2))
    recs = checks_by_id(bundle, ysize=27)
    assert recs["gap-le-ysize"].holds
    assert recs["residual-le-slack"].holds
    skew = gen_skew_d4(20)
    pos_bundle, *_ = bundle_for(skew, 4)
    assert pos_bundle.e_x > 0
    recs = checks_by_id(pos_bundle, ysize=15)
    assert "gap-le-ysize" not in recs and "residual-le-slack" not in recs


def test_gap_dichotomy_on_heavy_imbalance():
    D = gen_skew_d6(120, seed=5)
    bundle, *_ = bundle_for(D, 6)
    recs = checks_by_id(bundle)
    assert recs["gap-above-ratio"].holds   # 111 > 720/11
    assert recs["huge-odd"].holds
    assert "tail-dominance" in recs


def k1_bundle():
    arcs = [(0, y) for y in range(3, 10)]
    arcs += [(1, y) for y in range(3, 9)]
    arcs += [(2, y) for y in range(3, 8)]
    arcs += [(10, 1), (11, 1), (12, 1)]
    D = from_arc_list(13, arcs)
    return D, bundle_for(D, 4, x=(0, 1, 2))


def test_candidate_forms_and_d4k1_disjunction():
    D, (bundle, xs, gr, tr, cfg) = k1_bundle()
    recs = checks_by_id(bundle)
    for rid in ("form1-neg", "form2-lower", "form3-upper",
                "d4k1-alt-a", "d4k1-alt-b1", "d4k1-alt-b2",
                "d4k1-disjunction", "d4k1-tau-bound"):
        assert rid in recs, rid
    dis = recs["d4k1-disjunction"]
    a = recs["d4k1-alt-a"].holds
    b = recs["d4k1-alt-b1"].holds and recs["d4k1-alt-b2"].holds
    assert dis.holds == (a or b)
    assert dis.lhs in ("0", "1") and dis.rhs == "1"

    even = from_arc_list(6, [(0, 2), (0, 3), (0, 4), (0, 5),
                             (1, 2), (1, 3), (1, 4), (1, 5)])
    ebundle, *_ = bundle_for(even, 4, x=(0, 1))
    assert not has_prefix(checks_by_id(ebundle), ("form", "d4k1-"))


def test_chain_gating_and_force():
    bundle, *_ = bundle_for(gen_skew_d4(20), 4)
    assert len(bundle.deltas) == 5  # d = 4 but five huge vertices
    assert not has_prefix(checks_by_id(bundle), "chain-")

    _, (kb, *_rest) = k1_bundle()
    in_regime = [r for rid, r in checks_by_id(kb).items() if rid.startswith("chain-")]
    ids = [r.check_id for r in in_regime]
    assert ids[0] == "chain-01" and ids[-1] == "chain-17" and len(ids) == 18
    assert "chain-05-slack" in ids
    assert all(verify_record(r) for r in in_regime)
    assert all(r.meta["t"] == "6" for r in in_regime)  # t = 2*7 - 5 - 3


@pytest.mark.parametrize("change", [
    {"deltas": (7,), "k": 0},                # d = 4, one huge vertex
    {"deltas": (7, 5, 3, 2, 1), "k": 2},     # d = 4, five huge vertices
    {"d": 3},                                # three huge vertices, d = 3
    {"d": 5},                                # three huge vertices, d = 5
])
def test_chain_runs_only_in_its_regime(change):
    _, (kb, *_rest) = k1_bundle()
    assert not has_prefix(checks_by_id(replace(kb, **change)), "chain-")


def test_candidate_forms_drop_only_delta_0_at_k_0():
    _, (kb, *_rest) = k1_bundle()
    skew, *_ = bundle_for(gen_skew_d4(20), 4)
    for bundle, want in ((replace(kb, deltas=(7,), k=0), "delta_0"),
                         (kb, None), (skew, None)):
        recs = checks_by_id(bundle)
        for rid in ("form2-lower", "form3-upper"):
            assert recs[rid].meta["k"] == str(bundle.k)
            assert recs[rid].meta.get("dropped_terms") == want, (bundle.k, rid)


def test_candidate_forms_refuse_a_huge_count_other_than_2k_plus_1():
    _, (kb, *_rest) = k1_bundle()
    for change in ({"deltas": (7, 5)}, {"k": 0}, {"k": 2}):
        assert not has_prefix(checks_by_id(replace(kb, **change)), ("form", "d4k1-"))


def test_certificate_runs_each_check_exactly_in_its_regime():
    """On any X, empty and all of V included, build_certificate returns, and
    each check's records appear exactly when its regime holds: the min-gap
    bounds when e(X) = 0, the candidate forms when the huge count is odd (k
    set), the chain at d = 4 with three huge vertices."""
    rng = np.random.default_rng(7)
    seen = set()
    for i in range(40):
        n = int(rng.integers(6, 17))
        D = gen_random_minout(n, int(rng.integers(1, 4)),
                              extra=int(rng.integers(0, 2 * n)), seed=i)
        xs = [(), tuple(range(n))] + [
            tuple(np.flatnonzero(rng.random(n) < q).tolist()) for q in (0.15, 0.3, 0.6)]
        for x in xs:
            gr = min_gap_partition(D, x)
            tr = essential_tight_components(D, x)
            for d in (2, 3, 4, 5):
                cert = build_certificate(D, gr, tr, EngineConfig(d=d))
                ids = [c.check_id for c in cert.checks]
                regimes = (e_between(D, x, x) == 0, gr.k is not None,
                           d == 4 and len(gr.huge) == 3)
                present = (
                    "gap-le-ysize" in ids and "residual-le-slack" in ids,
                    any(c.startswith(("form", "d4k1-")) for c in ids),
                    any(c.startswith("chain-") for c in ids),
                )
                assert present == regimes, (i, x, d, ids)
                assert {"gap-above-ratio", "huge-odd", "huge-ge-d",
                        "huge-single"} <= set(ids)
                seen.add(regimes)
    # each regime is met and missed somewhere in the corpus
    assert [{r[j] for r in seen} for j in range(3)] == [{True, False}] * 3


def test_huge_regimes_tau_bound_gating():
    D, (bundle, *_ ) = k1_bundle()
    recs = checks_by_id(bundle)
    # |huge| = 3, d = 4: denominator 2d - 2|X'| + 1 = 3 > 0, bound applies
    assert "tau-bound" in recs and verify_record(recs["tau-bound"])
    skew, *_ = bundle_for(gen_skew_d4(20), 4)
    recs2 = checks_by_id(skew)
    assert "tau-bound" not in recs2  # denominator -1 would flip the inequality


def test_f_plus_h_equals_m_at_half_when_x_arc_free():
    D = gen_skew_d6(60, seed=3)
    bundle, xs, gr, tr, cfg = bundle_for(D, 6)
    assert bundle.e_x == 0
    for mask in range(4):
        x1 = tuple(v for v in xs if mask >> v & 1)
        x2 = tuple(v for v in xs if not mask >> v & 1)
        mm = mf_mb(D, x1, x2)
        f, h = eval_f_h(bundle, CandidateXPartition("T", x1, x2, Fraction(1, 2)), mm)
        assert f + h == bundle.m


def test_certificate_scores_and_render():
    D = gen_skew_d4(25)
    out = partition(D, EngineConfig(d=4, trials=8, seed=1))
    cert = out.certificate
    for s in cert.fh_values:
        assert s.f_margin * (2 * (2 * 4 - 1)) == s.f
        assert s.h_margin * (2 * (2 * 4 - 1)) == s.h
    text = render_text(cert)
    assert "[PASS]" in text or "[FAIL]" in text
    for c in cert.checks:
        assert c.check_id in text
    j = cert.to_jsonable()
    assert json.loads(json.dumps(j)) == j
    assert j["meta"]["shortcut"] is False


def test_bundle_quantities_are_definitional():
    D = gen_skew_d6(30, seed=9)
    bundle, xs, gr, tr, cfg = bundle_for(D, 6, x=(0, 1, 2))
    assert bundle.n == D.n and bundle.m == D.m
    assert bundle.m1 + bundle.m2 + bundle.e_x == D.m
    assert bundle.theta == gr.theta_abs_min
    deg = D.degrees()
    assert bundle.deltas == tuple(int(deg[v]) - 2 * min(int(D.out_degrees[v]),
                                                        int(D.in_degrees[v]))
                                  for v in gr.huge)
    assert bundle.g == gr.g and bundle.b == gr.b
    assert bundle.tau == tr.tau
    assert sum(bundle.deltas) + bundle.g + 2 * bundle.b + bundle.m2 == D.m


def test_bundle_counts_arcs_across_gr_x_and_its_complement():
    D = gen_random_minout(60, 4, extra=60, seed=1)
    cfg = EngineConfig(d=4)
    for x in ((0, 1, 2), (0, 1, 2, 3, 4), split_by_degree(D)):
        gr = min_gap_partition(D, x)
        y = sorted(set(range(D.n)) - set(gr.x))
        bundle = compute_bundle(D, gr, essential_tight_components(D, gr.x), cfg)
        assert bundle.m1 == e_between(D, gr.x, y) + e_between(D, y, gr.x)
        assert bundle.m2 == e_between(D, y, y)
        assert bundle.e_x == e_between(D, gr.x, gr.x)
        assert len(bundle.deltas) == len(gr.huge)


def test_certificate_refuses_a_candidate_not_splitting_gr_x():
    D = gen_skew_d4(20)
    bundle, xs, gr, tr, cfg = bundle_for(D, 4)
    assert gr.x == tuple(range(5))
    ok = CandidateXPartition("T", (4,), (0, 1, 2, 3), Fraction(1, 2))
    assert len(build_certificate(D, gr, tr, cfg, candidates=[ok]).fh_values) == 1
    for x1, x2 in (((4,), (0, 1, 2)),           # vertex 3 of X left out
                   ((4,), (0, 1, 2, 3, 5)),     # vertex 5 of Y taken in
                   ((3, 4), (0, 1, 2, 3)),      # x1 and x2 overlap
                   ((4,), (0, 1, 2, 3, 20))):   # outside the graph
        bad = CandidateXPartition("T", x1, x2, Fraction(1, 2))
        with pytest.raises(PartitionError):
            build_certificate(D, gr, tr, cfg, candidates=[ok, bad])


def arithmetic_sides(checks):
    return {c.check_id: (Fraction(c.lhs), c.comparison, Fraction(c.rhs))
            for c in checks if c.check_id not in NOT_ARITHMETIC}


def test_every_arithmetic_record_matches_the_hand_written_sides():
    """Each side computed from its statement equals the hand-written formula,
    over the engine and hub corpora, skew-d4 and skew-d6 at several n, and the
    skew-d6 n = 60 instance at d = 4 (certify --gen skew-d6 --n 60 --x-auto
    --d 4), which reaches every check id."""
    cases = [(D, split_by_degree(D), d) for D, d in engine_corpus_50()]
    cases += [(gen_skew_d4(n), split_by_degree(gen_skew_d4(n)), 4) for n in (12, 20, 30, 45)]
    for n, seed in ((30, 1), (60, 2), (90, 3), (150, 4)):
        D = gen_skew_d6(n, seed=seed)
        cases.append((D, split_by_degree(D), 6))
    D = gen_skew_d6(60)
    cases.append((D, split_by_degree(D), 4))
    runs = [(D, min_gap_partition(D, x), EngineConfig(d=d)) for D, x, d in cases]
    runs += hub_candidate_corpus(seeds=40)
    seen = set()
    for D, gr, cfg in runs:
        cert = build_certificate(D, gr, essential_tight_components(D, gr.x), cfg)
        want = reference_check_sides(cert.bundle, D.n - len(gr.x))
        assert arithmetic_sides(cert.checks) == want, (D.n, gr.x, cfg.d)
        seen |= {c.check_id for c in cert.checks}
    assert seen == set(_STATEMENTS) | set(NOT_ARITHMETIC)
    assert len(seen) == 34


def in_regime_bundles():
    """Bundles built from the d = 4, k = 1 one by replace, so that each
    statement row is in its regime somewhere: the chain and the d4k1 rows at
    d = 4 with three huge vertices, form2 at d >= 2, tau-bound while
    2d - 2|huge| + 1 > 0, the forms at k = 0 and k = 2 as well."""
    _, (kb, *_rest) = k1_bundle()
    out = [kb]
    for d in (1, 2, 3, 5, 6):
        out.append(replace(kb, d=d))
        out.append(replace(kb, d=d, deltas=(9,), k=0))
        out.append(replace(kb, d=d, deltas=(9, 7, 5, 3, 1), k=2))
    out.append(replace(kb, deltas=(2, 4), k=None, e_x=3))
    return out


def test_every_statement_compiles_and_evaluates_in_its_regime():
    seen = set()
    for bundle in in_regime_bundles():
        ysize = bundle.n - len(bundle.deltas)
        checks = certificate_checks(bundle, ysize)
        assert all(verify_record(c) for c in checks)
        assert arithmetic_sides(checks) == reference_check_sides(bundle, ysize), bundle
        seen |= {c.check_id for c in checks}
    assert set(_STATEMENTS) <= seen


@pytest.mark.parametrize("statement, q, want", [
    # decimals are exact: 2.31 is 231/100
    ("2.31g > 0", {"g": 1}, (Fraction(231, 100), ">", 0)),
    ("0.829n < 1.3n", {"n": 1000}, (829, "<", 1300)),
    # a side-by-side product, and / exact on integers
    ("7(n-tau)/4 == 0", {"n": 10, "tau": 1}, (Fraction(63, 4), "==", 0)),
    ("d(d-1)/(3d-1) < (d-1)^2/(2d(3d-1))", {"d": 4},
     (Fraction(12, 11), "<", Fraction(9, 88))),
    ("2(2d-1)(k+1) >= 2t/11", {"d": 3, "k": 1, "t": 1}, (20, ">=", Fraction(2, 11))),
    # the aliases
    ("|huge| <= |Y|", {"huge": 3, "Y": 5}, (3, "<=", 5)),
    ("sum_{j>k} delta_j - sum_{j<=k} delta_j >= 0", {"tail": 7, "lead": 2}, (5, ">=", 0)),
    ("tau <= (n + 2g + 2b) / (2d - 2|huge| + 1)",
     {"tau": 1, "n": 10, "g": 1, "b": 2, "d": 4, "huge": 3}, (1, "<=", Fraction(16, 3))),
])
def test_statement_notation(statement, q, want):
    got = _evaluate(statement, q)
    assert got == want
    assert all(type(v) in (int, Fraction) for v in (got[0], got[2]))


def test_a_statement_sees_no_builtins():
    with pytest.raises(NameError):
        _evaluate("len < 1", {})
