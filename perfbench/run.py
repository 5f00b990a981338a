"""judipart benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up (prepare.py) and the timed closed
loop (solve.py) each run in a child process of their own, one after the
other; this process waits for each, so no child outlives the run. With
--trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer ones. Report lines go first; the last line of standard output is
the JSON result. Any failure to set up or to measure exits non-zero without
a result. See perfbench/NOTES.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from prepare import WORKLOADS

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170  # the whole run, set-up included, must end within 180 s
SETUP_TIMEOUT_S = 60


class ChildError(RuntimeError):
    pass


def child(script: str, args: list[str], timeout: float) -> dict:
    """Run a sibling script to completion; its last stdout line is JSON."""
    cmd = [sys.executable, str(HERE / script), *args]
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildError(f"{script} did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{script} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    start = time.monotonic()
    inputs = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = child("prepare.py", inputs, SETUP_TIMEOUT_S)
        solved = child("solve.py", inputs + ["--seconds", str(args.seconds),
                                             "--trace", str(args.trace)],
                       DEADLINE_S - (time.monotonic() - start))
    except (ChildError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = dict(solved["metrics"])
    if args.trace:
        metrics["generators.s"] = (setup["generators_s"], "s")
    else:
        metrics["setup_s"] = (setup["setup_s"], "s")
    print(f"workload {args.workload}, seed {args.seed}: set-up median of "
          f"{len(setup['reps'])} reps, generators {setup['generators_s']:.4f} s, "
          f"oracle.exact_max_min_cut {setup['oracle_s']:.4f} s, cache {setup['cache']}; "
          f"raw wall {setup['raw_s']:.4f} s")
    for note in solved["notes"]:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": solved["failed"] == 0,
        "attempted": solved["attempted"],
        "failed": solved["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
