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
# pinned at 0xbb776940ecd30a67. Those plans take the middlebox fallback
# and send window updates under SWS avoidance, which neither md5 covers.
# A mismatch means simulated behaviour changed. Re-pin a value only in a
# change that says why the behaviour had to move. The traces carry each
# scheduler execution's instruction count (`c` of sched_exec_end), so a
# spec rewrite that decides alike still moves the md5s and the digest:
# they were last re-pinned when the minrtt spec became run_default_minrtt's
# twin, and with `c` masked every trace equals the one before line for
# line. The handover md5 moved once more when probe-proven revival became
# the only revival: the trace equals the one before up to its first
# probe_sent (line 34,763 of 132,150), after which the downed WiFi is
# probed and revived 20.061 ms after the heal instead of 19.000 ms.
#
# Usage: scripts/check_goldens.sh [build-dir]   (default: build)
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
build_dir=$(cd "${1:-build}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# Every check runs and prints its verdict; the exit status reports whether
# any of them failed, so one moved golden does not hide the others.
failed=0

for bench in bench_fig1_motivation bench_fig_handover; do
  if ! "$build_dir/bench/$bench" > "$bench.log" 2>&1; then
    cat "$bench.log"
    echo "check_goldens: $bench failed" >&2
    failed=1
  fi
done

md5sum -c <<'MD5' || failed=1
206759892ae59e4d1b4af65b7c0ad546  fig1_trace.jsonl
2d54dadae6034d765ff708761c157d1e  fig_handover_trace.jsonl
MD5

# check_counts WORKLOAD SIM_EVENTS SIM_CANCELLED EXEC_CALLS
check_counts() {
  local result
  if ! result=$(cd "$repo" && python3 perfbench/run.py --workload "$1" \
      --seed 1 --seconds 3 --trace 1 | tail -n 1); then
    echo "check_goldens: $1: perfbench run failed" >&2
    return 1
  fi
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

check_counts fleet_bulk 1298595 323284 982748 || failed=1
check_counts redundant_lossy 1472303 313297 1110908 || failed=1

if [ "$failed" -ne 0 ]; then
  echo "check_goldens: FAILED (see the verdicts above)" >&2
fi
exit "$failed"
