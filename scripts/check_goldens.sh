#!/usr/bin/env bash
# Golden gate: pins simulated behaviour two ways.
#  * Runs bench_fig1_motivation and bench_fig_handover in a temporary
#    directory and checks the JSONL traces they write against pinned md5s.
#  * Runs the repository benchmark's fleet_bulk and redundant_lossy
#    workloads traced (seed 1, 3 s) and checks their simulated event,
#    cancellation and scheduler-call counts. Every rep does fixed work, so
#    these counts do not depend on the host or the run length.
# A third golden lives in the tier-1 suite, not here: the chaos replays.
# ChaosSoakTest.TraceDigestIsPinned folds the host traces of the traced,
# tampered single-tenant soak (seeds 0-49) into one 64-bit FNV-1a digest,
# pinned at 0xb3686ff15d5586d4. Those plans take the middlebox fallback
# and send window updates under SWS avoidance, which neither md5 covers.
# A mismatch means simulated behaviour changed. Re-pin a value only in a
# change that says why the behaviour had to move.
#
# Usage: scripts/check_goldens.sh [build-dir]   (default: build)
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
build_dir=$(cd "${1:-build}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

for bench in bench_fig1_motivation bench_fig_handover; do
  if ! "$build_dir/bench/$bench" > "$bench.log" 2>&1; then
    cat "$bench.log"
    echo "check_goldens: $bench failed" >&2
    exit 1
  fi
done

md5sum -c <<'MD5'
5c1961a143ca51562203ae95367b8d4f  fig1_trace.jsonl
c8414900ecaa67ba59c849b56a7bf645  fig_handover_trace.jsonl
MD5

# check_counts WORKLOAD SIM_EVENTS SIM_CANCELLED EXEC_CALLS
check_counts() {
  local result
  result=$(cd "$repo" && python3 perfbench/run.py --workload "$1" --seed 1 \
    --seconds 3 --trace 1 | tail -n 1)
  python3 - "$result" "$@" <<'PY'
import json
import sys

result = json.loads(sys.argv[1])
workload = sys.argv[2]
names = ("sim.events", "sim.cancelled", "runtime.exec_calls")
want = dict(zip(names, map(int, sys.argv[3:6])))
got = {name: int(result["metrics"][name]["value"]) for name in names}
if got != want:
    sys.exit(f"check_goldens: {workload}: traced counts {got}, pinned {want}")
print(f"{workload}: OK")
PY
}

check_counts fleet_bulk 1298595 323284 982748
check_counts redundant_lossy 1472303 313297 1110908
