#!/usr/bin/env bash
# Build the bench suite in Release and run every bench, collecting the
# BENCH_<name>.json reports (wall-clock, allocation counts, simulated
# figures) into a single directory at the repo root.
#
# Usage: tools/run_benches.sh [build-dir] [out-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-release}"
out_dir="${2:-$repo_root/bench-reports}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$(nproc)"

# The simulated benches are the golden-hash list (see
# tools/check_stdout_invariance.sh); bench_micro times the host instead.
mapfile -t benches < <(awk 'NF { print "bench_" $2 }' "$repo_root/tools/golden_stdout.sha256")
benches+=(bench_micro)

mkdir -p "$out_dir"
run_dir="$(mktemp -d)"
trap 'rm -rf "$run_dir"' EXIT

for b in "${benches[@]}"; do
  echo "=== $b ==="
  # Each bench writes BENCH_<name>.json into its working directory.
  (cd "$run_dir" && "$build_dir/bench/$b" | tee "$out_dir/$b.out")
done

mv "$run_dir"/BENCH_*.json "$out_dir"/
echo
echo "Reports collected in $out_dir:"
ls "$out_dir"/BENCH_*.json
