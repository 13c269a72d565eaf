#!/usr/bin/env bash
# Byte-identical stdout gate for the simulated benches.
#
# Every simulated benchmark prints its results (tables, figure data) to
# stdout and all harness/progress chatter to stderr. Because the simulator
# is deterministic, that stdout must be byte-for-byte reproducible:
#   run-to-run   — two consecutive runs of the same binary must match, and
#   vs. golden   — each run must hash to the value committed in
#                  tools/golden_stdout.sha256.
# A diff here means someone introduced hash-order, wall-clock, or RNG
# nondeterminism into the simulated path (see tools/gvfs_lint for the
# static version of this gate). bench_micro is excluded by design: it
# prints host wall-clock timings.
#
# The bench list is the name column of tools/golden_stdout.sha256; CI and
# tools/run_benches.sh read it from there too. To add a simulated bench
# bench/bench_<name>: append a line "- <name>" to the golden (any
# placeholder in the hash column) and run with --update.
#
# Usage: tools/check_stdout_invariance.sh [build-dir]
#   Builds the bench binaries if needed, runs each twice, diffs, hashes.
#   --update rewrites tools/golden_stdout.sha256 from the current binaries
#   (use only when a PR intentionally changes simulated results or adds a
#   bench).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
  shift
fi
build_dir="${1:-$repo_root/build}"
golden="$repo_root/tools/golden_stdout.sha256"

mapfile -t benches < <(awk 'NF { print $2 }' "$golden")

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" -j "$(nproc)" \
  --target "${benches[@]/#/bench_}" >/dev/null

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

fail=0
new_golden=""
for name in "${benches[@]}"; do
  bin="$build_dir/bench/bench_$name"
  "$bin" >"$work/$name.run1" 2>/dev/null
  "$bin" >"$work/$name.run2" 2>/dev/null
  if ! cmp -s "$work/$name.run1" "$work/$name.run2"; then
    echo "FAIL $name: stdout differs between two runs (nondeterminism)" >&2
    diff "$work/$name.run1" "$work/$name.run2" | head -20 >&2 || true
    fail=1
    continue
  fi
  got="$(sha256sum "$work/$name.run1" | cut -d' ' -f1)"
  new_golden+="$got  $name"$'\n'
  if [[ "$update" == 1 ]]; then
    echo "UPDATE $name $got"
    continue
  fi
  want="$(awk -v n="$name" '$2 == n { print $1 }' "$golden")"
  if [[ -z "$want" ]]; then
    echo "FAIL $name: no golden hash recorded in $golden" >&2
    fail=1
  elif [[ "$got" != "$want" ]]; then
    echo "FAIL $name: stdout hash $got != golden $want" >&2
    fail=1
  else
    echo "OK   $name"
  fi
done

if [[ "$update" == 1 ]]; then
  printf '%s' "$new_golden" >"$golden"
  echo "wrote $golden"
  exit 0
fi

if [[ "$fail" != 0 ]]; then
  echo "stdout invariance check FAILED" >&2
  exit 1
fi
echo "stdout invariance check passed (${#benches[@]} benches, run twice each)."
