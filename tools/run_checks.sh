#!/usr/bin/env bash
# Correctness gate: every static and dynamic check this repo supports, in
# cheapest-first order. Any failure aborts the run.
#
#   1. gvfs_lint         repo-specific determinism/style linter over the tree,
#                        including the interprocedural yield-point analysis
#                        (yield-stale-ref / yield-index-loop / yield-held-lock)
#                        and the committed may-yield-model golden diff
#   2. stdout invariance every simulated bench listed in
#                        tools/golden_stdout.sha256 runs twice; stdout must be
#                        byte-identical run-to-run and match the committed hash
#   3. ASan/UBSan        full test suite (incl. ctest -L faults) under
#                        AddressSanitizer + UndefinedBehaviorSanitizer
#   4. TSan              full test suite under ThreadSanitizer; the sim runs
#                        its processes as fibers on one OS thread, announced
#                        to TSan at every switch (sim/fiber.cc), so this checks
#                        the fiber handoff rather than lock-based concurrency.
#                        The only std::atomic in src/ is the log level; the
#                        job is kept to check that every fiber switch, the
#                        hand-written x86-64 one included, is announced
#   5. clang-tidy        bugprone-*/performance-*/concurrency-* profile from
#                        .clang-tidy — runs only when clang-tidy is on PATH
#                        (the baked-in container toolchain is gcc-only)
#
# Usage: tools/run_checks.sh [build-dir-prefix]
#   builds land in <prefix>-asan and <prefix>-tsan (default: build-check).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${1:-$repo_root/build-check}"
jobs="$(nproc)"

run_suite() {
  local build_dir="$1" sanitizers="$2" label="$3"
  cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGVFS_SANITIZE="$sanitizers"
  cmake --build "$build_dir" -j "$jobs"
  echo "== full test suite under $label =="
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs")
  echo "== fault-injection tests under $label (ctest -L faults) =="
  (cd "$build_dir" && ctest --output-on-failure -L faults -j "$jobs")
}

echo "== gvfs_lint (repo determinism/style linter) =="
lint_build="$prefix-asan"
cmake -B "$lint_build" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGVFS_SANITIZE=address,undefined
cmake --build "$lint_build" -j "$jobs" --target gvfs_lint
"$lint_build/tools/gvfs_lint" --root "$repo_root"
echo "== yield-model golden (may-yield set vs committed snapshot) =="
"$lint_build/tools/gvfs_lint" --root "$repo_root" \
  --yield-model-golden "$repo_root/tools/lint/yield_model_golden.txt"

# The invariance gate needs an unsanitized build (sanitizers perturb nothing
# simulated, but keep the golden-hash environment identical to CI's). It
# leaves each bench's BENCH_<name>.json in its working directory, so it runs
# in a scratch one: from the repo root it would rewrite the committed
# reports with wall clocks from a host busy with sanitizer builds.
echo "== stdout invariance (simulated benches, vs golden hashes) =="
invariance_dir="$(mktemp -d)"
trap 'rm -rf "$invariance_dir"' EXIT
(cd "$invariance_dir" && "$repo_root/tools/check_stdout_invariance.sh" "$prefix-bench")

# Turn every sanitizer finding into a hard failure: ASan exits non-zero on
# its first report, UBSan aborts instead of printing-and-continuing.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:abort_on_error=0"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
run_suite "$lint_build" "address,undefined" "ASan/UBSan"

# TSan is incompatible with ASan, so it gets its own build tree. Suppress
# nothing: the sim kernel's one-runnable-thread handoff must be data-race
# free as seen by TSan, not just by construction.
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
run_suite "$prefix-tsan" "thread" "TSan"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (.clang-tidy profile) =="
  tidy_build="$prefix-tidy"
  cmake -B "$tidy_build" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  # Sources only; headers are covered via HeaderFilterRegex.
  find "$repo_root/src" "$repo_root/tools" -name '*.cc' -not -path '*lint_fixtures*' \
    | xargs clang-tidy -p "$tidy_build" --quiet
else
  echo "== clang-tidy not found on PATH; skipping (gcc-only container) =="
fi

echo "All checks passed (lint + stdout invariance + ASan/UBSan + TSan clean)."
