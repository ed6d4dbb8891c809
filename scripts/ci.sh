#!/usr/bin/env bash
# CI entry point: regular build + full suite, a repeat/shuffle pass to
# flush timing-dependent flakes out of the concurrency-heavy suites (plus
# one forked-process SIGKILL chaos pass), a ThreadSanitizer build racing
# the transport/pipeline/chaos tests (the conformance suite on both
# backends, TCP included), and a gcc --coverage build gating
# src/ line coverage (gcovr when available, scripts/coverage.py
# otherwise).
#
# A portable pass rebuilds the tensor kernels without -march=native, once
# with AVX2+FMA and once with the scalar fallback, and runs their tests, so
# every compile-time tier of gemm.cpp stays built and bit-checked.
#
# `loc` prints src/ lines per module and the total (every file, counted
# like `find src -type f | xargs cat | wc -l`), so changes report net
# lines the same way; it is a report, not a gate.
#
# Usage: scripts/ci.sh [all|test|stress|tsan|portable|coverage|loc]
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"
JOBS="${JOBS:-$(nproc)}"
# A fresh seed per CI run; override GTEST_SEED to reproduce a failure.
SEED="${GTEST_SEED:-$((RANDOM % 99999))}"
# src/ line coverage when the coverage gate merged was 96.1%
# (scripts/coverage.py over the full suite); the floor sits one point
# under to absorb gcovr-vs-gcov accounting differences.  Raise it when
# coverage improves, never lower it.
COVERAGE_MIN="${COVERAGE_MIN:-95.0}"

build() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
}

run_tests() {
  (cd "$1" && ctest --output-on-failure -j "$JOBS")
}

# The suites that exercise real threads and message timing, plus the
# planner/obs/elastic property suites (cheap, and their invariants must
# hold under shuffle and TSan too).  chaos_test carries the straggler
# schedules; elastic_test the monitor/sharding/replan units;
# transport_conformance_test runs the identical contract suite against
# the in-process and TCP-loopback backends; quant_test covers
# the compressed cache/wire path (codecs, quantized redistribution, the
# int8 session quality gate).
# service_test adds the multi-tenant dispatcher: concurrent submit/cancel/
# complete races, worker-pool completion, and the seeded admission
# property — all of which must hold under shuffle and TSan.
# common_test carries the ThreadPool dispatch stress case (thousands of
# short parallel_for calls from several threads), which TSan must see.
# cache_test races the prefetch reader and fetch's reload path against
# appends to the same shard's spill log.
CONCURRENT_SUITES=(common_test dist_test pipeline_test chaos_test cache_test
                   async_comm_test planner_test obs_test elastic_test
                   transport_conformance_test quant_test service_test)

# Extra gtest args per suite under TSan.  transport_conformance_test runs
# whole: it is the only real-wire endpoint TSan sees, and its TCP cases
# (the Tcp parameterization and TcpRobustness.*) passed 20 repeats under
# TSan while a build loaded the host.  In chaos_test and dist_test the
# socket-bound trainer runs (the WAN-shaped schedule, the split-cluster
# and rendezvous-wired meshes, all with "Tcp" in their names) stay on the
# regular and stress passes, as before: the instrumented scheduler made
# their accept/connect timing flaky.
tsan_suite_args() {
  case "$1" in
    chaos_test|dist_test)
      echo "--gtest_filter=-*Tcp*" ;;
    *) echo "" ;;
  esac
}

tsan_pass() {
  echo "=== ThreadSanitizer pass ==="
  for suite in "${CONCURRENT_SUITES[@]}"; do
    # shellcheck disable=SC2046  # intentional word-splitting of the args
    "build-tsan/tests/${suite}" --gtest_brief=1 $(tsan_suite_args "$suite")
  done
}

stress_pass() {
  local dir="$1"
  echo "=== repeat/shuffle stress pass (seed ${SEED}) ==="
  for suite in "${CONCURRENT_SUITES[@]}"; do
    "${dir}/tests/${suite}" \
      --gtest_repeat=3 --gtest_shuffle --gtest_random_seed="${SEED}" \
      --gtest_brief=1
  done
  # Real-process chaos: forked ranks over TCP loopback with a live
  # SIGKILL that only the survivors' own endpoints detect.  One pass (not x3): the kill lands at a scheduler-chosen
  # instruction, so every run is already a fresh sample, and each pass
  # costs ~20s of wall clock.
  echo "=== multi-process chaos pass ==="
  "${dir}/tests/proc_chaos_test" --gtest_brief=1
  # Reconnect chaos: the WAN-shaped TCP trainer schedule plus the forced
  # link-cut / MAC-tamper / resync conformance cases as one focused pass
  # (not x3 — every run already reconnects at scheduler-chosen instants,
  # so each pass is a fresh sample).
  echo "=== reconnect chaos pass ==="
  "${dir}/tests/chaos_test" --gtest_filter='*WanShapedTcp*' --gtest_brief=1
  "${dir}/tests/transport_conformance_test" \
    --gtest_filter='*LinkCut*:*ReconnectPreserves*:TcpRobustness.*' \
    --gtest_brief=1
}

# The kernel tests at the AVX2+FMA and scalar tiers (see the header).
portable_pass() {
  local tier dir
  for tier in avx2 scalar; do
    dir="build-portable-${tier}"
    echo "=== portable kernels: ${tier} ==="
    if [[ "$tier" == avx2 ]]; then
      cmake -B "$dir" -S . -DPAC_NATIVE_KERNELS=OFF \
            "-DCMAKE_CXX_FLAGS=-mavx2 -mfma"
    else
      cmake -B "$dir" -S . -DPAC_NATIVE_KERNELS=OFF
    fi
    cmake --build "$dir" -j "$JOBS" --target tensor_test kernel_property_test
    "${dir}/tests/tensor_test" --gtest_brief=1
    "${dir}/tests/kernel_property_test" --gtest_brief=1
  done
}

# src/ lines per module, then the total.
loc_report() {
  local dir
  for dir in src/*/; do
    printf '%-16s %6d\n' "$(basename "$dir")" \
      "$(find "$dir" -type f -print0 | xargs -0 cat | wc -l)"
  done
  printf '%-16s %6d\n' total "$(find src -type f -print0 | xargs -0 cat | wc -l)"
}

case "$MODE" in
  test)
    build build
    run_tests build
    scripts/bench.sh --quick
    scripts/bench.sh --quick --suite comm
    scripts/bench.sh --quick --suite service
    ;;
  stress)
    build build
    stress_pass build
    ;;
  tsan)
    build build-tsan -DPAC_SANITIZE=thread
    tsan_pass
    ;;
  portable)
    portable_pass
    ;;
  coverage)
    build build-cov -DCMAKE_BUILD_TYPE=Debug -DPAC_COVERAGE=ON
    run_tests build-cov
    echo "=== coverage gate (src/ line coverage >= ${COVERAGE_MIN}%) ==="
    if command -v gcovr >/dev/null 2>&1; then
      gcovr --root . --filter 'src/' --exclude '.*_test\.cpp' \
            --print-summary --fail-under-line "${COVERAGE_MIN}" build-cov
    else
      # The container bakes in gcc/gcov but not gcovr; aggregate with the
      # stdlib-only fallback.
      python3 scripts/coverage.py --build-dir build-cov \
              --min "${COVERAGE_MIN}"
    fi
    ;;
  loc)
    loc_report
    ;;
  all)
    build build
    run_tests build
    scripts/bench.sh --quick
    scripts/bench.sh --quick --suite comm
    scripts/bench.sh --quick --suite service
    stress_pass build
    build build-tsan -DPAC_SANITIZE=thread
    tsan_pass
    portable_pass
    ;;
  *)
    echo "unknown mode: $MODE (expected all|test|stress|tsan|portable|coverage|loc)" >&2
    exit 2
    ;;
esac
