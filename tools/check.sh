#!/usr/bin/env bash
# check.sh — one driver for every correctness gate in the repo.
#
# Stages (run in this order with --all; pick individual ones by flag):
#   --build      configure + build with SIGHT_WERROR=ON (hardened warnings
#                are errors) and run the full ctest suite
#   --lint       tools/sight_lint.py repo rules + its self-test
#   --analyze    tools/sight_analyzer.py semantic rules (epoch/lock/
#                hot-path/status discipline over compile_commands.json)
#                + its self-test; distinguishes findings from tool errors
#   --tidy       clang-tidy over src/ using the exported compile commands
#                (skipped with a notice if clang-tidy is not installed)
#   --format     clang-format --dry-run -Werror over src/ tests/ tools/
#                bench/ (skipped with a notice if clang-format is missing)
#   --asan / --ubsan / --tsan
#                sanitizer builds; tsan runs the threading-,
#                incremental-, and serving-labeled tests (the warm-start
#                solve state, the factored PS graph the per-class CMN
#                solves share across threads, and the RiskService shard
#                queues / snapshot swaps are exactly the kind of retained
#                or shared state sanitizers catch), asan/ubsan run the
#                full suite (incremental tests included)
#   --nosimd     build with -DSIGHT_SIMD=OFF and run the full ctest
#                suite (incremental tests included), so the portable
#                scalar PS kernels stay a first-class target
#   --perfbench  build the repo benchmark (perfbench/, BENCHMARK.json)
#                and smoke-run each workload for one second with
#                tracing on; fails on a non-zero exit, i.e. a build
#                error, a failed operation or a failed correctness gate
#
# With no flags: --build --lint (the fast local gate).
# CI (.github/workflows/ci.yml) fans the same stages out as matrix jobs.
#
# Env: BUILD_JOBS (default: nproc), CMAKE_BUILD_TYPE (default:
# RelWithDebInfo), CHECK_STRICT_TOOLS=1 makes missing clang-tidy /
# clang-format a hard failure instead of a skip (CI sets this).

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${BUILD_JOBS:-$(nproc)}"
STRICT_TOOLS="${CHECK_STRICT_TOOLS:-0}"

cd "$REPO_ROOT"

run_build=0 run_lint=0 run_analyze=0 run_tidy=0 run_format=0
run_asan=0 run_ubsan=0 run_tsan=0 run_nosimd=0 run_perfbench=0

if [[ $# -eq 0 ]]; then
  run_build=1 run_lint=1
fi
for arg in "$@"; do
  case "$arg" in
    --build)  run_build=1 ;;
    --lint)   run_lint=1 ;;
    --analyze) run_analyze=1 ;;
    --tidy)   run_tidy=1 ;;
    --format) run_format=1 ;;
    --asan)   run_asan=1 ;;
    --ubsan)  run_ubsan=1 ;;
    --tsan)   run_tsan=1 ;;
    --nosimd) run_nosimd=1 ;;
    --perfbench) run_perfbench=1 ;;
    --sanitize=address)   run_asan=1 ;;
    --sanitize=undefined) run_ubsan=1 ;;
    --sanitize=thread)    run_tsan=1 ;;
    --all) run_build=1 run_lint=1 run_analyze=1 run_tidy=1 run_format=1
           run_asan=1 run_ubsan=1 run_tsan=1 run_nosimd=1
           run_perfbench=1 ;;
    -h|--help) sed -n '2,35p' "$0"; exit 0 ;;
    *) echo "check.sh: unknown flag '$arg' (see --help)" >&2; exit 2 ;;
  esac
done

step() { printf '\n==== %s ====\n' "$*"; }

configure_and_build() {
  local dir="$1"; shift
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-RelWithDebInfo}" \
    -DSIGHT_WERROR=ON "$@"
  cmake --build "$dir" -j "$JOBS"
}

if [[ $run_build -eq 1 ]]; then
  step "build (SIGHT_WERROR=ON) + ctest"
  configure_and_build build
  (cd build && ctest --output-on-failure -j "$JOBS")
fi

# Runs a python checker that uses exit 1 for findings and exit 2 for tool
# errors, and reports which of the two actually happened.
run_checker() {
  local label="$1"; shift
  local rc=0
  "$@" || rc=$?
  case "$rc" in
    0) ;;
    1) echo "check.sh: $label reported findings (fix or suppress them)" >&2
       exit 1 ;;
    2) echo "check.sh: $label failed to run (tool error — see above," \
            "not a code finding)" >&2
       exit 2 ;;
    *) echo "check.sh: $label exited with unexpected status $rc" >&2
       exit "$rc" ;;
  esac
}

if [[ $run_lint -eq 1 ]]; then
  step "sight-lint"
  run_checker "sight-lint" python3 tools/sight_lint.py --root "$REPO_ROOT"
  python3 tests/tools/sight_lint_test.py
fi

if [[ $run_analyze -eq 1 ]]; then
  step "sight-analyzer (semantic rules over compile_commands.json)"
  # The analyzer consumes the compile commands the main configure exports.
  [[ -f build/compile_commands.json ]] || configure_and_build build
  run_checker "sight-analyzer" \
    python3 tools/sight_analyzer.py --root "$REPO_ROOT" --build-dir build
  python3 tests/tools/sight_analyzer_test.py
fi

if [[ $run_tidy -eq 1 ]]; then
  step "clang-tidy"
  if command -v clang-tidy >/dev/null 2>&1; then
    # compile_commands.json is exported by the main configure.
    [[ -f build/compile_commands.json ]] || configure_and_build build
    mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
    clang-tidy -p build --quiet "${tidy_sources[@]}"
  elif [[ "$STRICT_TOOLS" == "1" ]]; then
    echo "check.sh: clang-tidy required but not installed" >&2; exit 1
  else
    echo "check.sh: clang-tidy not installed; skipping (set" \
         "CHECK_STRICT_TOOLS=1 to make this fatal)"
  fi
fi

if [[ $run_format -eq 1 ]]; then
  step "clang-format"
  if command -v clang-format >/dev/null 2>&1; then
    mapfile -t fmt_sources < \
      <(find src tests tools bench -name '*.h' -o -name '*.cc' | sort)
    clang-format --dry-run -Werror "${fmt_sources[@]}"
  elif [[ "$STRICT_TOOLS" == "1" ]]; then
    echo "check.sh: clang-format required but not installed" >&2; exit 1
  else
    echo "check.sh: clang-format not installed; skipping (set" \
         "CHECK_STRICT_TOOLS=1 to make this fatal)"
  fi
fi

if [[ $run_asan -eq 1 ]]; then
  step "AddressSanitizer build + full ctest"
  configure_and_build build-asan -DSIGHT_SANITIZE=address
  (cd build-asan && ctest --output-on-failure -j "$JOBS")
fi

if [[ $run_ubsan -eq 1 ]]; then
  step "UndefinedBehaviorSanitizer build + full ctest"
  configure_and_build build-ubsan -DSIGHT_SANITIZE=undefined
  (cd build-ubsan && ctest --output-on-failure -j "$JOBS")
fi

if [[ $run_nosimd -eq 1 ]]; then
  step "SIGHT_SIMD=OFF build + full ctest (scalar kernels)"
  configure_and_build build-nosimd -DSIGHT_SIMD=OFF
  (cd build-nosimd && ctest --output-on-failure -j "$JOBS")
fi

if [[ $run_tsan -eq 1 ]]; then
  step "ThreadSanitizer build + threading/incremental/serving ctest"
  configure_and_build build-tsan -DSIGHT_SANITIZE=thread
  (cd build-tsan && \
   ctest --output-on-failure -L 'threading|incremental|serving' \
     -j "$JOBS")
fi

if [[ $run_perfbench -eq 1 ]]; then
  step "perfbench smoke: every workload, 1 s, traced"
  for workload in crawl_growth cold_10k_topk8; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --trace 1
  done
fi

step "all requested checks passed"
