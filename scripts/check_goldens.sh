#!/usr/bin/env bash
# Golden-trace gate: runs bench_fig1_motivation and bench_fig_handover in a
# temporary directory and checks the JSONL traces they write against the
# pinned md5s. A mismatch means simulated behaviour changed. Re-pin a hash
# only in a change that says why the behaviour had to move.
#
# Usage: scripts/check_goldens.sh [build-dir]   (default: build)
set -euo pipefail

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
