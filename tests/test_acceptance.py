"""Acceptance checks: one test and one printed pass/fail line per criterion.

Each test exercises the full stated workload at its stated tolerance and
time budget, with fixed seeds throughout.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import numpy as np

from helpers import complement, engine_corpus_50, mixed_gap_corpus, naive_tight_report
from judipart import (
    CandidateXPartition,
    EngineConfig,
    compute_bundle,
    e_between,
    essential_tight_components,
    eval_f_h,
    exact_max_min_cut,
    exact_min_gap,
    extension_trial_cuts,
    from_arc_list,
    gap,
    gen_eulerian_complete,
    gen_random_minout,
    gen_skew_d4,
    gen_skew_d6,
    gen_star_triangle,
    gen_tight_union,
    mf_mb,
    min_gap_partition,
    partition,
    verify_record,
)

_CORPUS = None


def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = mixed_gap_corpus(200)
    return _CORPUS


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_min_gap_solver_equals_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    for D, xs, _ys, _ex in corpus():
        gr = min_gap_partition(D, xs)
        orc = exact_min_gap(D, xs)
        mismatches += gr.theta_abs_min != orc.theta_abs_min
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 10.0
    report(1, ok, f"200 instances, {mismatches} mismatches, {dt:.2f}s (< 10s)")


def test_criterion_02_gap_and_residual_bounds():
    violations = 0
    zero_count = 0
    for D, xs, ys, ex in corpus():
        if ex != 0:
            continue
        zero_count += 1
        gr = min_gap_partition(D, xs)
        if gr.theta_abs_min > len(ys):
            violations += 1
        if gr.g > len(ys) - gr.theta_abs_min:
            violations += 1
    ok = violations == 0 and zero_count > 0
    report(2, ok, f"{zero_count} arc-free-X instances, {violations} violations")


def test_criterion_03_skew_d4_identities():
    n = 20
    D = gen_skew_d4(n)
    xs = tuple(range(5))
    ok = D.m == 5 * n - 5
    ok &= int(D.out_degrees.min()) == 4

    gr = min_gap_partition(D, xs)
    ok &= gr.theta_abs_min == n - 5
    # brute-force the optimal tie-class and require membership
    tie_class = set()
    for pick in range(2 ** 5):
        x1 = tuple(v for v in xs if pick >> v & 1)
        x2 = tuple(v for v in xs if not pick >> v & 1)
        if abs(gap(D, x1, x2)) == n - 5:
            tie_class.add(x1)
    ok &= gr.x1 in tie_class
    orc = exact_min_gap(D, xs)
    ok &= orc.x1 == (1,)

    cand = CandidateXPartition("MINGAP", (1,), (0, 2, 3, 4), Fraction(1, 2))
    _e12s, e21s, _A = extension_trial_cuts(
        D, cand, EngineConfig(d=4, trials=256, seed=3))
    constant = bool(np.all(e21s == n - 1))
    ok &= constant

    big = gen_skew_d4(200)
    t0 = time.perf_counter()
    out = partition(big, EngineConfig(d=4, trials=64, seed=0))
    dt = time.perf_counter() - t0
    ok &= out.ratio > 1 / 5 and dt < 5.0
    report(3, ok, f"m=5n-5, tie-class hit, e21 constant {n - 1}: {constant}, "
                  f"n=200 ratio {out.ratio:.4f} in {dt:.2f}s (< 5s)")


def test_criterion_04_d6_grid_never_has_both_nonnegative():
    t0 = time.perf_counter()
    D = gen_skew_d6(120, seed=5)
    cfg = EngineConfig(d=6)
    xs = (0, 1, 2)
    gr = min_gap_partition(D, xs)
    tr = essential_tight_components(D, xs)
    bundle = compute_bundle(D, gr, tr, cfg)
    both_nonneg = 0
    identity_breaks = 0
    points = 0
    for mask in range(8):
        x1 = tuple(v for v in xs if mask >> v & 1)
        x2 = tuple(v for v in xs if not mask >> v & 1)
        mm = mf_mb(D, x1, x2)
        for i in range(101):
            p = Fraction(i, 200)
            f, h = eval_f_h(bundle, CandidateXPartition("T", x1, x2, p), mm)
            points += 1
            if f >= 0 and h >= 0:
                both_nonneg += 1
            if p == Fraction(1, 2) and f + h != bundle.m:
                identity_breaks += 1
    dt = time.perf_counter() - t0
    ok = both_nonneg == 0 and identity_breaks == 0 and dt < 2.0
    report(4, ok, f"{points} grid points, {both_nonneg} with f,h both >= 0, "
                  f"f+h=m at p=1/2 breaks: {identity_breaks}, {dt:.2f}s (< 2s)")


def test_criterion_05_extension_sampling_means():
    def expectation(D, cand, ys):
        p = Fraction(cand.p)
        x1, x2 = list(cand.x1), list(cand.x2)
        eY = e_between(D, ys, ys)
        E12 = (e_between(D, x1, x2) + (1 - p) * e_between(D, x1, ys)
               + p * e_between(D, ys, x2) + p * (1 - p) * eY)
        E21 = (e_between(D, x2, x1) + (1 - p) * e_between(D, ys, x1)
               + p * e_between(D, x2, ys) + p * (1 - p) * eY)
        return float(E12), float(E21)

    triples = [
        (gen_skew_d4(20), (4,), (0, 1, 2, 3), Fraction(1, 2), 11),
        (gen_skew_d4(20), (1,), (0, 2, 3, 4), Fraction(5, 14), 12),
        (gen_random_minout(30, 3, extra=10, seed=77), (), (), Fraction(1, 2), 13),
        (gen_tight_union(4, 2), tuple(range(4)), tuple(range(4, 7)),
         Fraction(3, 8), 14),
        (gen_star_triangle(40), (0,), (), Fraction(1, 4), 15),
    ]
    worst = 0.0
    ok = True
    for D, x1, x2, p, seed in triples:
        ys = sorted(set(range(D.n)) - set(x1) - set(x2))
        cand = CandidateXPartition("T", x1, x2, p)
        e12s, e21s, _ = extension_trial_cuts(
            D, cand, EngineConfig(d=1, trials=2000, seed=seed))
        E12, E21 = expectation(D, cand, ys)
        for arr, exp in ((e12s, E12), (e21s, E21)):
            se = arr.std(ddof=1) / np.sqrt(len(arr))
            if se == 0:
                ok &= arr.mean() == exp
            else:
                devs = abs(arr.mean() - exp) / se
                worst = max(worst, devs)
                ok &= devs <= 4.0
    report(5, ok, f"5 triples x 2000 trials, worst deviation {worst:.2f} SE (<= 4)")


def test_criterion_06_engine_tracks_small_oracle():
    eq = 0
    hard_bound = True
    for i in range(100):
        n = 5 + i % 4
        D = gen_random_minout(n, 2, extra=(i * 7) % 5, seed=1000 + i)
        opt = exact_max_min_cut(D).optimum
        out = partition(D, EngineConfig(d=2, trials=256, seed=i))
        hard_bound &= out.cut.minval <= opt
        eq += out.cut.minval == opt
    ok = hard_bound and eq >= 95
    report(6, ok, f"min cut <= optimum always: {hard_bound}; equal on {eq}/100 (>= 95)")


def test_criterion_07_tight_flags_match_naive():
    rng = random.Random(4242)
    mismatches = 0
    for i in range(100):
        n = rng.randint(3, 10)
        D = gen_random_minout(n, 1, extra=rng.randint(0, n), seed=7000 + i)
        ys = list(range(n)) if i % 2 else sorted(
            rng.sample(range(n), rng.randint(1, n)))
        rep = essential_tight_components(D, complement(n, ys))
        if rep.to_jsonable() != naive_tight_report(D, ys):
            mismatches += 1

    two_tri = from_arc_list(6, [(0, 1), (1, 2), (2, 0),
                                (3, 4), (4, 5), (5, 3)])
    tau2 = essential_tight_components(two_tri, ()).tau
    with_anti = from_arc_list(6, [(0, 1), (1, 2), (2, 0),
                                  (3, 4), (4, 5), (5, 3), (1, 0)])
    tau1 = essential_tight_components(with_anti, ()).tau
    ok = mismatches == 0 and tau2 == 2 and tau2 - tau1 == 1
    report(7, ok, f"100 instances, {mismatches} flag mismatches; "
                  f"tau {tau2} -> {tau1} after one anti-parallel arc")


def test_criterion_08_odd_clique_targets():
    details = []
    ok = True
    for d in (2, 3, 4):
        D = gen_eulerian_complete(2 * d + 1)
        out = partition(D, EngineConfig(d=d, trials=256, seed=0))
        need = float(Fraction(d - 1, 2 * (2 * d - 1))) - 1 / D.m
        ok &= out.ratio >= need
        details.append(f"K{2 * d + 1} ratio {out.ratio:.3f} >= {need:.3f}")
    report(8, ok, "; ".join(details))


def test_criterion_09_certificates_recompute():
    bad_records = 0
    identity_breaks = 0
    n_instances = 0
    n_zero = 0
    for idx, (D, d) in enumerate(engine_corpus_50()):
        out = partition(D, EngineConfig(d=d, trials=8, seed=idx))
        n_instances += 1
        for rec in out.certificate.checks:
            bad_records += not verify_record(rec)
        bundle = out.certificate.bundle
        if bundle.e_x == 0:
            n_zero += 1
            if sum(bundle.deltas) + bundle.g + 2 * bundle.b + bundle.m2 \
                    != bundle.m:
                identity_breaks += 1
    ok = n_instances == 50 and bad_records == 0 and identity_breaks == 0
    report(9, ok, f"{n_instances} instances, {bad_records} stale records, "
                  f"{identity_breaks} identity breaks over {n_zero} arc-free-X")


def test_criterion_10_scale_smoke():
    t0 = time.perf_counter()
    D = gen_random_minout(100000, 4, extra=100000, seed=42)
    cfg = EngineConfig(d=4, trials=16, seed=7)
    out1 = partition(D, cfg)
    out2 = partition(D, cfg)
    dt = time.perf_counter() - t0
    same = json.dumps(out1.to_jsonable(), sort_keys=True) == \
        json.dumps(out2.to_jsonable(), sort_keys=True)
    ok = D.n == 100000 and D.m == 500000 and dt < 30.0 and same
    report(10, ok, f"n=1e5 m=5e5 ratio {out1.ratio:.4f}, two runs identical: "
                   f"{same}, {dt:.2f}s (< 30s)")
