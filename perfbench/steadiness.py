#!/usr/bin/env python3
"""Measures how steady the end-to-end metrics are across seeds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads fleet_bulk,redundant_lossy,spec_load] [--json out.json]

Runs perfbench/run.py once per seed and workload (untraced, run_seconds from
BENCHMARK.json), then prints per workload and metric the median, the first
and third quartile (statistics.quantiles, n=4) and the quartile distance as
a share of the median, next to the metric's bound. Run from the checkout
root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    values = {}
    for w in workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect or failed operations")
            for name, m in result["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                file=sys.stderr, flush=True)

    print("| workload | metric | median | Q1 | Q3 | IQR/median | bound |")
    print("|---|---|---|---|---|---|---|")
    for w, metrics in values.items():
        for name, v in metrics.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"| {w} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{(q3 - q1) / med:.3f} | {bounds.get(name, '')} |")
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=1))


if __name__ == "__main__":
    main()
