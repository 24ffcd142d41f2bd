#!/usr/bin/env python3
"""Tracing overhead and per-layer reference figures.

    python3 perfbench/overhead.py --pairs 3 --seconds 30 [--workloads metric-report,...]

For each workload, runs ``--pairs`` pairs of untraced and traced runs (one
seed per pair, alternating which runs first) one after another, and prints
the median of each end-to-end metric in both modes and the median, over
pairs, of the traced run's relative difference from its untraced partner
(the two runs of a pair are adjacent in time, so slow drift of the host
cancels). Then the median of each per-layer metric over the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: outputs failed their checks\n{proc.stdout}")
    e2e = json.loads(lines[-2].removeprefix("e2e "))
    return e2e, {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()

    for name in args.workloads.split(","):
        plain, traced, layers = [], [], []
        for i in range(args.pairs):
            seed = args.first_seed + i
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                e2e, metrics = _run(name, seed, args.seconds, trace)
                if trace:
                    traced.append(e2e)
                    layers.append(metrics)
                else:
                    plain.append(e2e)
        print(f"## {name} ({args.pairs} pairs, {args.seconds:g} s runs)")
        print("| metric | untraced median | traced median | (traced - untraced) / untraced, median of pairs [min, max] |")
        print("|---|---|---|---|")
        for metric in plain[0]:
            diffs = [(t[metric] - p[metric]) / p[metric] for p, t in zip(plain, traced)]
            print(f"| {metric} | {statistics.median(r[metric] for r in plain):.6g} "
                  f"| {statistics.median(r[metric] for r in traced):.6g} "
                  f"| {statistics.median(diffs):+.1%} [{min(diffs):+.1%}, {max(diffs):+.1%}] |")
        print("| per-layer metric | traced median |")
        print("|---|---|")
        for metric in layers[0]:
            print(f"| {metric} | {statistics.median(r[metric] for r in layers):.6g} |")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
