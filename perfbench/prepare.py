"""Set-up for one benchmark run, in a process of its own.

Generates a workload's graphs from its seed and, on small-oracle, their exact
optima with `exact_max_min_cut`. That is repeated REPS times and timed;
setup_s is the median. The edge lists and the optima are written to the cache
once per workload seed, together with a manifest the timed process reads.
Each repetition is followed by the speed probe and its seconds are rescaled
to the reference speed (speed.py), as the timed loop's are.
Keeping generation out of the timed process keeps its peak RSS to parse plus
engine.

Prints one JSON line: setup_s and its split into generators and oracle.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

import numpy as np

import speed
from common import MissingSourceError, cache_dir, import_judipart

REPS = 3
TRIALS = 64
ORACLE_GRAPHS = 150
ORACLE_N = range(10, 17)  # the oracle doubles per vertex; n = 16 is ~0.06 s


def large_random(jp, seed):
    return [jp.gen_random_minout(50_000, 4, extra=50_000, seed=seed)], 4


def relabel(jp, D, rng):
    """D under a random vertex permutation, arcs sorted by (tail, head)."""
    perm = rng.permutation(D.n)
    t, h = perm[D.tails], perm[D.heads]
    order = np.lexsort((h, t))
    return jp.from_arc_list(D.n, zip(t[order].tolist(), h[order].tolist()))


def tight_union(jp, seed):
    """The fixed tight-union instance under a seeded relabelling."""
    D = jp.gen_tight_union(4, 5000, augment=True)
    return [relabel(jp, D, np.random.default_rng(seed))], 4


def small_oracle(jp, seed):
    """A fixed corpus of ORACLE_GRAPHS random d = 3 graphs, n cycling through
    ORACLE_N, each under a seeded relabelling.

    About half of these graphs get one candidate and half get four (the parity
    of the huge set decides), so op times are bimodal with the median between
    the modes. Fresh graphs per seed would move that median by the seed's mix
    alone; relabelling keeps the mix, the optima and the oracle's work fixed
    while still changing the engine's input and random streams.
    """
    graphs = []
    for i in range(ORACLE_GRAPHS):
        n = ORACLE_N[i % len(ORACLE_N)]
        extra = int(np.random.default_rng(i).integers(0, n + 1))
        D = jp.gen_random_minout(n, 3, extra=extra, seed=i)
        graphs.append(relabel(jp, D, np.random.default_rng((seed, i))))
    return graphs, 3


# name -> (generator, whether each graph gets its exact optimum)
WORKLOADS = {
    "large-random": (large_random, False),
    "tight-union": (tight_union, False),
    "small-oracle": (small_oracle, True),
}


def setup_once(jp, workload: str, seed: int):
    gen, refereed = WORKLOADS[workload]
    t0 = time.perf_counter()
    graphs, d = gen(jp, seed)
    t1 = time.perf_counter()
    optima = [jp.exact_max_min_cut(D).optimum if refereed else None for D in graphs]
    t2 = time.perf_counter()
    return graphs, d, optima, t1 - t0, t2 - t1


def write_cache(jp, workload: str, seed: int, graphs, d: int, optima) -> str:
    """Write edge lists and manifest unless the cache already holds exactly
    these inputs. Returns "reused" or "written"."""
    texts = [jp.format_edge_list(D) for D in graphs]
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    folder = cache_dir(workload, seed)
    manifest_path = folder / "manifest.json"
    if manifest_path.is_file():
        old = json.loads(manifest_path.read_text())
        if old.get("digest") == digest and [g["optimum"] for g in old["graphs"]] == optima:
            return "reused"
    folder.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (D, text, opt) in enumerate(zip(graphs, texts, optima)):
        name = f"g{i}.txt"
        (folder / name).write_text(text)
        entries.append({"file": name, "n": D.n, "m": D.m, "optimum": opt})
    manifest = {"workload": workload, "seed": seed, "d": d, "trials": TRIALS,
                "graphs": entries, "digest": digest}
    tmp = folder / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest))
    os.replace(tmp, manifest_path)  # a manifest only ever names complete files
    return "written"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    try:
        jp = import_judipart()
    except MissingSourceError as exc:
        print(exc, file=sys.stderr)
        return 2

    meter = speed.Meter()
    meter.prime()
    graphs = optima = None
    gen_times, oracle_times, raw = [], [], []
    for _ in range(REPS):
        again, d, again_optima, gen_s, oracle_s = setup_once(jp, args.workload, args.seed)
        if graphs is None:
            graphs, optima = again, again_optima
        elif again != graphs or again_optima != optima:
            raise RuntimeError(f"{args.workload} set-up differs between repetitions")
        del again
        meter.work(gen_s + oracle_s)
        scale = meter.close()
        gen_times.append(gen_s * scale)
        oracle_times.append(oracle_s * scale)
        raw.append(gen_s + oracle_s)
    cache = write_cache(jp, args.workload, args.seed, graphs, d, optima)
    totals = [g + o for g, o in zip(gen_times, oracle_times)]
    print(json.dumps({
        "setup_s": statistics.median(totals),
        "generators_s": statistics.median(gen_times),
        "oracle_s": statistics.median(oracle_times),
        "reps": totals,
        "raw_s": statistics.median(raw),
        "cache": cache,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
