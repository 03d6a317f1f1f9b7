#!/usr/bin/env python3
"""Warn-only perf trend gate for the fleet bench.

Diffs a fresh BENCH_fleet.json against the committed baseline
(bench/baselines/BENCH_fleet.json) and emits GitHub Actions ::warning::
annotations for any (scenario, conns) row whose events/sec regressed more
than the threshold (default 10%). The fleet/1024 row is the headline
number from the queue-layer refactor (EXPERIMENTS.md), so its warning is
called out explicitly.

Always exits 0: shared CI runners make absolute numbers too noisy to
fail the build on — the annotations are a trend signal for reviewers, not
a gate. Stdlib only.
"""

import argparse
import json
import sys


def load_rows(path):
    with open(path) as f:
        data = json.load(f)
    return {(r["scenario"], r["conns"]): r for r in data.get("rows", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly produced BENCH_fleet.json")
    parser.add_argument(
        "--baseline",
        default="bench/baselines/BENCH_fleet.json",
        help="committed reference JSON",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative regression that triggers a warning (0.10 = 10%%)",
    )
    args = parser.parse_args()

    try:
        baseline = load_rows(args.baseline)
        current = load_rows(args.current)
    except (OSError, json.JSONDecodeError, KeyError) as err:
        print(f"::warning::fleet perf gate skipped: {err}")
        return 0

    regressions = []
    for key, base_row in sorted(baseline.items()):
        cur_row = current.get(key)
        if cur_row is None:
            continue  # the smoke sweep may run a subset of the baseline
        base = base_row["events_per_sec"]
        cur = cur_row["events_per_sec"]
        if base <= 0:
            continue
        delta = (cur - base) / base
        scenario, conns = key
        tag = f"{scenario}/{conns}"
        print(
            f"{tag}: {cur:,.0f} ev/s vs baseline {base:,.0f} "
            f"({delta:+.1%})"
        )
        if delta < -args.threshold:
            regressions.append((tag, base, cur, delta))

    for tag, base, cur, delta in regressions:
        headline = " (headline row)" if tag == "fleet/1024" else ""
        print(
            f"::warning file=bench/baselines/BENCH_fleet.json::"
            f"fleet throughput regression{headline}: {tag} at {cur:,.0f} "
            f"ev/s, {-delta:.1%} below the committed baseline "
            f"({base:,.0f} ev/s). If intentional, refresh the baseline "
            f"with bench_fleet --conns 64,256,1024 --horizon-ms 500."
        )

    if not regressions:
        print("fleet perf gate: all rows within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
