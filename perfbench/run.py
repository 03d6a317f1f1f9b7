#!/usr/bin/env python3
"""Builds the benchmark binary from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload fleet_bulk|redundant_lossy|spec_load \
        --seed N --seconds S --trace 0|1 [--conns N] [--horizon-ms N]

Run from the root of a checkout. The benchmark binary is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) and runs the workload in its own
process. Its last stdout line is the result object, which is checked and
printed again as this script's last line. Exits non-zero, printing no result,
if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fleet_bulk", "redundant_lossy", "spec_load")
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def valid(result, expected):
    """Checks the result's shape, and that its metrics and units are exactly
    the ones BENCHMARK.json lists for the run's mode."""
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["correct"], bool)
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict)
            and {n: m.get("unit") for n, m in result["metrics"].items()}
            == expected)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--conns", type=int, default=0)
    ap.add_argument("--horizon-ms", type=int, default=0)
    args = ap.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "api" / "progmp_api.hpp").exists():
        log(f"library sources not found under {root / 'src'}")
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir

    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-dir", str(build_dir / "spans")]
    if args.conns:
        cmd += ["--conns", str(args.conns)]
    if args.horizon_ms:
        cmd += ["--horizon-ms", str(args.horizon_ms)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        log("workload timed out")
        return 1
    if run.returncode != 0:
        log(f"workload exited with {run.returncode}")
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("workload printed no result")
        return 1
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not valid(result, expected):
        log("malformed result, or metrics other than BENCHMARK.json lists")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
