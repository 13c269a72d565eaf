#!/usr/bin/env bash
# Allocation-budget gate for the simulation engine.
#
# The same binary performs the same number of operator-new calls on every
# run, on every machine, for bench_micro (every benchmark is pinned to a
# fixed iteration count) and for the deterministic simulated benches listed
# in tools/alloc_budget.txt. That makes allocation churn CI-gateable the way
# the stdout hashes make the virtual timeline gateable: this script fails if
# any listed bench's alloc_count exceeds its committed budget.
#
# bench_micro is run here. The simulated benches are not re-run: their
# alloc_count is read from the BENCH_<name>.json reports that
# tools/check_stdout_invariance.sh leaves in the directory it ran from, so
# run that first, from the same directory.
#
# Each budget carries ~5 % headroom over the measured count so a toolchain
# bump doesn't trip it; a real regression (per-op allocation on a hot sim
# path) blows through it immediately. When a PR legitimately changes
# allocation behaviour, re-measure and update tools/alloc_budget.txt in the
# same commit, explaining the move.
#
# Usage: tools/check_alloc_budget.sh [build-dir] [reports-dir]
#   reports-dir defaults to the current directory.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
# Absolute: the bench runs from a scratch directory below.
build_dir="$(cd "$build_dir" 2>/dev/null && pwd || echo "$build_dir")"
reports_dir="${2:-$PWD}"
budget_file="$repo_root/tools/alloc_budget.txt"

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target bench_micro >/dev/null

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

(cd "$work" && "$build_dir/bench/bench_micro" >/dev/null 2>&1)

fail=0
while read -r name budget _; do
  [[ -z "$name" || "$name" == \#* ]] && continue
  report="$reports_dir/BENCH_$name.json"
  [[ "$name" == micro ]] && report="$work/BENCH_micro.json"
  count=""
  if [[ -f "$report" ]]; then
    count="$(sed -n 's/.*"alloc_count": \([0-9]*\).*/\1/p' "$report" | head -1)"
  fi
  if [[ -z "$count" ]]; then
    echo "FAIL: could not read alloc_count from $report" >&2
    fail=1
  elif [[ "$count" -gt "$budget" ]]; then
    echo "FAIL: bench_$name alloc_count $count exceeds budget $budget" >&2
    fail=1
  else
    echo "OK   bench_$name alloc_count $count <= budget $budget"
  fi
done <"$budget_file"

if [[ "$fail" != 0 ]]; then
  echo "(allocation regression on a hot simulation path, or an intentional" >&2
  echo "change that must update tools/alloc_budget.txt)" >&2
  exit 1
fi
echo "alloc budget check passed"
