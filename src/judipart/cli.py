"""Command-line surface.

One binary, six subcommands:

  partition  full engine run on a file or generated instance
  oracle     exact best min-direction cut by exhaustive search (small n)
  gap        minimum-gap partition of a chosen X
  tight      tight-component report for D[Y]
  certify    quantity bundle plus every in-regime inequality check
  gen        write a generated instance as an edge list (+ .props.json sidecar)

One runner (main) does what every subcommand shares: it loads the instance,
times the run, builds the record, serializes it once, writes it to -o,
prints it or the human text (or the help or version), and maps errors to
exit codes. A subcommand is a function (args, D) -> (config, outcome, human
text); gen alone loads nothing, writes its instance and returns its own
record input.

Instances come from --input FILE (edge-list format: header "n m", one "u v"
line per arc, # comments) or --gen FAMILY with family parameters (--n, --q,
--copies, --extra, --augment, --gen-d; the analysis commands reuse --seed for
the generator). gen declares the same generator flags, but spells the
outdegree --d: elsewhere --d is the engine's claimed outdegree. X sets for
gap/tight/certify come from --x-file (one vertex id per line) or --x-auto
(the engine's own split: total degree at least n^(3/4)); their records name
both (config.x_auto, config.x_file).

Exit codes: 0 success, 1 stdout closed before the result was printed (the
EPIPE convention; nothing goes to stderr), 2 bad input, 3 resource limit
exceeded. --help and --version are argparse's own actions: main parses under
contextlib.redirect_stdout, and on their exit 0 prints the captured text
through the same final print, so they exit 1 on a closed stdout too.

--json emits a RunRecord whose "outcome" object is byte-identical across
reruns with the same inputs and seed. A --d above the instance's minimum
outdegree is a "warning:" line of the partition text and an entry of
outcome.warnings; a successful run writes nothing to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

from . import __version__
from .certify import build_certificate, render_text
from .digraph import (
    Digraph,
    _data_lines,
    _is_int64,
    load_edge_list,
    min_outdegree,
    save_edge_list,
)
from .engine import (
    EngineConfig,
    partition as run_partition,
    split_by_degree,
)
from .errors import InputError, LimitError
from .mingap import min_gap_partition
from .generators import FAMILIES
from .oracle import exact_max_min_cut
from .tight import essential_tight_components


def _add_gen_args(sp: argparse.ArgumentParser, d_flag: str) -> None:
    """Generator parameters and --seed. The outdegree lands in gen_d: it is
    `gen --d` but `--gen-d` wherever --d is the engine's claimed outdegree."""
    sp.add_argument("--n", type=int, help="generator: vertex count")
    sp.add_argument("--q", type=int, help="generator: clique order")
    sp.add_argument(d_flag, dest="gen_d", type=int, metavar="D",
                    help="generator: per-vertex outdegree")
    sp.add_argument("--copies", type=int, help="generator: small-clique copies")
    sp.add_argument("--extra", type=int, help="generator: extra random arcs")
    sp.add_argument("--augment", action="store_true",
                    help="generator: wire small cliques into the big one")
    sp.add_argument("--seed", type=int, default=0)


def _add_input_args(sp: argparse.ArgumentParser) -> None:
    """Instance source, generator parameters, seed and record output."""
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="edge-list file")
    src.add_argument("--gen", choices=sorted(FAMILIES), help="generate the instance")
    _add_gen_args(sp, "--gen-d")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("-o", "--output", help="also write the JSON record here")


def _add_x_args(sp: argparse.ArgumentParser) -> None:
    xgrp = sp.add_mutually_exclusive_group()
    xgrp.add_argument("--x-file", help="file of X vertex ids, one per line")
    xgrp.add_argument("--x-auto", action="store_true",
                      help="X from the degree threshold n^(3/4)")


def _gen_kwargs(family: str, args) -> dict:
    """Generator arguments from the parsed flags."""
    _, params = FAMILIES[family]
    kwargs = {}
    for p in params:
        val = getattr(args, "gen_d" if p == "d" else p)
        if val is None:
            if p not in ("extra", "copies"):
                flag = "gen-d" if p == "d" and args.command != "gen" else p
                raise InputError(f"generator {family!r} needs --{flag}")
            val = 0
        kwargs[p] = val
    return kwargs


def _load_instance(args) -> tuple[Digraph, dict]:
    if args.input:
        return load_edge_list(args.input), {"path": args.input}
    kwargs = _gen_kwargs(args.gen, args)
    func, _ = FAMILIES[args.gen]
    return func(**kwargs), {"family": args.gen, "params": kwargs}


def _load_x(args, D: Digraph) -> tuple[int, ...]:
    """X from --x-auto or --x-file (empty with neither), sorted. An x-file
    line holds one id under the edge-list token rule: a decimal int64."""
    if args.x_auto:
        return split_by_degree(D)
    xs = []
    path = args.x_file
    if path is not None:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        for lineno, line, tokens in _data_lines(text):
            if len(tokens) != 1 or not _is_int64(tokens[0]):
                data = line.split("#", 1)[0].strip()
                raise InputError(f"{path}:{lineno}: not a vertex id: {data!r}")
            xs.append(int(tokens[0]))
            if not 0 <= xs[-1] < D.n:
                raise InputError(
                    f"{path}:{lineno}: vertex {xs[-1]} out of range, n={D.n}"
                )
    return tuple(sorted(set(xs)))


def cmd_partition(args, D: Digraph) -> tuple[dict, dict, str]:
    cfg = EngineConfig(d=args.d, epsilon=args.eps, trials=args.trials, seed=args.seed)
    out = run_partition(D, cfg)
    config = {"d": cfg.d, "eps": cfg.epsilon, "trials": cfg.trials, "seed": cfg.seed}
    lines = [
        f"n={D.n} m={D.m} d={out.d_configured} (actual min outdegree {out.d_actual})",
        f"best candidate={out.candidate_used} cut: e12={out.cut.e12} "
        f"e21={out.cut.e21} min={out.cut.minval}",
        f"ratio={out.ratio:.6f} target={out.guarantee_target:.6f}"
        + (" [shortcut]" if out.shortcut else "")
        + (" [huge-even]" if out.huge_even else ""),
        "per-candidate:",
    ]
    for r in out.per_candidate:
        lines.append(f"  {r.label} p={r.p}: e12={r.cut.e12} e21={r.cut.e21} "
                     f"min={r.cut.minval}")
    for w in out.warnings:
        lines.append(f"warning: {w}")
    if args.certify:
        lines.append(render_text(out.certificate))
    else:
        failing = sum(1 for c in out.certificate.checks if not c.holds)
        lines.append(
            f"certificate: {len(out.certificate.checks)} checks, "
            f"{failing} failing (--certify for detail)"
        )
    return config, out.to_jsonable(), "\n".join(lines)


def cmd_oracle(args, D: Digraph) -> tuple[dict, dict, str]:
    res = exact_max_min_cut(D, limit=args.limit)
    outcome = {
        "optimum": res.optimum,
        "witness_side1": list(res.witness.side1()),
        "evaluated": res.evaluated,
        "m": D.m,
        "ratio": res.optimum / D.m if D.m else 0.0,
    }
    human = (
        f"n={D.n} m={D.m} optimum={res.optimum} "
        f"ratio={outcome['ratio']:.6f}\n"
        f"witness side1={list(res.witness.side1())} "
        f"(evaluated {res.evaluated} partitions)"
    )
    return {"limit": args.limit}, outcome, human


def cmd_gap(args, D: Digraph) -> tuple[dict, dict, str]:
    gr = min_gap_partition(D, _load_x(args, D))
    outcome = {
        "x": list(gr.x), "x1": list(gr.x1), "x2": list(gr.x2),
        "theta": gr.theta, "theta_abs": gr.theta_abs_min,
        "huge": list(gr.huge), "k": gr.k, "g": gr.g, "b": gr.b,
        "forward": list(gr.forward), "backward": list(gr.backward),
    }
    human = (
        f"|X|={len(gr.x)} theta={gr.theta} (|theta|={gr.theta_abs_min})\n"
        f"x1={list(gr.x1)}\nx2={list(gr.x2)}\n"
        f"huge={list(gr.huge)} k={gr.k} g={gr.g} b={gr.b}"
    )
    return {"x_auto": args.x_auto, "x_file": args.x_file}, outcome, human


def cmd_tight(args, D: Digraph) -> tuple[dict, dict, str]:
    tr = essential_tight_components(D, _load_x(args, D))
    outcome = tr.to_jsonable()
    comps = outcome["components"]
    lines = [f"|Y|={sum(map(len, comps))} components={len(comps)} tau={tr.tau}"]
    for comp, tf, ef in list(zip(comps, outcome["tight"], outcome["essential"]))[:20]:
        tag = "essential-tight" if ef else ("tight" if tf else "loose")
        lines.append(f"  size={len(comp)} {tag}: {comp[:12]}"
                     + ("..." if len(comp) > 12 else ""))
    if len(comps) > 20:
        lines.append(f"  ... {len(comps) - 20} more")
    return {"x_auto": args.x_auto, "x_file": args.x_file}, outcome, "\n".join(lines)


def cmd_certify(args, D: Digraph) -> tuple[dict, dict, str]:
    cfg = EngineConfig(d=args.d, epsilon=args.eps)
    gr = min_gap_partition(D, _load_x(args, D))
    tr = essential_tight_components(D, gr.x)
    cert = build_certificate(D, gr, tr, cfg)
    config = {"d": args.d, "eps": args.eps, "x_auto": args.x_auto,
              "x_file": args.x_file}
    return config, cert.to_jsonable(), render_text(cert)


def cmd_gen(args) -> tuple[dict, dict, dict, str]:
    """Write the instance and its .props.json; returns the record's input
    beside what the other commands return."""
    kwargs = _gen_kwargs(args.family, args)
    func, _ = FAMILIES[args.family]
    D = func(**kwargs)
    save_edge_list(D, args.instance)
    props = {
        "family": args.family,
        "n": D.n,
        "m": D.m,
        "min_outdegree": min_outdegree(D),
        "params": {k: v for k, v in kwargs.items()},
    }
    with open(args.instance + ".props.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(props, sort_keys=True, indent=2) + "\n")
    human = (
        f"wrote {args.instance} ({D.n} vertices, {D.m} arcs, "
        f"min outdegree {props['min_outdegree']})"
    )
    inp = {"family": args.family, "params": kwargs}
    return inp, {"output": args.instance}, props, human


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="judipart",
        description="judicious bipartitions of digraphs with outdegree bounds",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="run the full partition engine")
    _add_input_args(p)
    p.add_argument("--d", type=int, required=True, help="claimed min outdegree")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--certify", action="store_true", help="print the full certificate")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("oracle", help="exact optimum by exhaustive search")
    _add_input_args(p)
    p.add_argument("--limit", type=int, default=24, help="max n for 2^(n-1) scan")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gap", help="minimum-gap partition of X")
    _add_input_args(p)
    _add_x_args(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("tight", help="tight components of D[Y]")
    _add_input_args(p)
    _add_x_args(p)
    p.set_defaults(func=cmd_tight)

    p = sub.add_parser("certify", help="evaluate all in-regime checks")
    _add_input_args(p)
    _add_x_args(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.01)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("gen", help="write a generated instance")
    p.add_argument("family", choices=sorted(FAMILIES))
    _add_gen_args(p, "--d")
    p.add_argument("-o", "--output", dest="instance", metavar="OUTPUT", required=True)
    p.add_argument("--json", action="store_true")
    return ap


def _result(args) -> str:
    """Run the command, build its record once, write it to -o, and return
    what to print: the record with --json, else the human text."""
    started = time.monotonic()
    if args.command == "gen":
        inp, config, outcome, human = cmd_gen(args)
    else:
        D, inp = _load_instance(args)
        config, outcome, human = args.func(args, D)
    text = json.dumps({
        "command": args.command,
        "input": inp,
        "config": config,
        "outcome": outcome,
        "version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
    }, sort_keys=True, indent=2)
    if getattr(args, "output", None):  # gen's -o is its instance
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text if args.json else human


def main(argv=None) -> int:
    """The one runner (see the module docstring)."""
    try:
        try:
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                args = build_parser().parse_args(argv)
        except SystemExit as stop:  # --help or --version; a usage error exits 2
            if stop.code:
                raise
            out = printed.getvalue().removesuffix("\n")  # the final print adds it back
        else:
            out = _result(args)
        try:
            print(out, flush=True)
        except BrokenPipeError:  # the reader closed the pipe; the run finished
            # stdout to devnull, so the flush at interpreter exit stays quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        return 0
    except (InputError, OSError) as exc:  # OSError: a missing file, a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LimitError, MemoryError) as exc:
        print(f"limit exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
