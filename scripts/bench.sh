#!/usr/bin/env bash
# Benchmark runner: builds the Release tree and records a micro-benchmark
# suite as google-benchmark JSON.
#
# Usage: scripts/bench.sh [--quick] [--suite kernels|comm|service] [output.json]
#   --quick          smoke mode: one short repetition per benchmark,
#                    results discarded (used by scripts/ci.sh to keep the
#                    bench suites compiling and running); no JSON written.
#   --suite kernels  micro_kernels -> BENCH_kernels.json (default)
#   --suite comm     micro_dist BM_Comm* (overlapped pipeline mini-batch on
#                    the simulated 128 Mbps link over in-proc, TCP
#                    loopback and WAN-shaped links, the same mini-batch
#                    in-proc with no link sleeps, cache prefetch, and the
#                    quantized-cache session with its cache/redistribution
#                    byte counters), BM_AllReduce (direct and ring
#                    schedules, in-proc, no link sleeps),
#                    BM_Redistribution (cache re-shard, fp32 RAM and
#                    int8 disk shards), BM_CacheQuantizeRoundTrip (codec
#                    throughput per dtype), and BM_ElasticReplan
#                    (straggler verdict + planner re-run) -> BENCH_comm.json
#   --suite service  micro_service BM_Service* (dispatcher control-plane
#                    round trips, and the 16-job-burst makespan pair —
#                    packed fleet vs max_concurrent_jobs=1 serial baseline,
#                    with the dispatcher's makespan gauge exported as a
#                    counter) -> BENCH_service.json
#
# To regenerate a tracked baseline after a change:
#   scripts/bench.sh BENCH_kernels.json
#   scripts/bench.sh --suite comm BENCH_comm.json
# and commit the result alongside the change that moved the numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
SUITE="kernels"
OUT=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1; shift ;;
    --suite) SUITE="$2"; shift 2 ;;
    *) OUT="$1"; shift ;;
  esac
done

case "$SUITE" in
  kernels)
    TARGET=micro_kernels
    FILTER=""
    OUT="${OUT:-BENCH_kernels.json}"
    MIN_TIME=0.2
    ;;
  comm)
    TARGET=micro_dist
    FILTER="BM_Comm|BM_AllReduce|BM_Redistribution|BM_CacheQuantize|BM_ElasticReplan"
    OUT="${OUT:-BENCH_comm.json}"
    # Comm iterations are link-sleep dominated (~100 ms wall each), so a
    # longer window is needed for stable medians.
    MIN_TIME=0.5
    ;;
  service)
    TARGET=micro_service
    FILTER="BM_Service"
    OUT="${OUT:-BENCH_service.json}"
    # Makespan iterations sleep real simulated time (tens of ms each).
    MIN_TIME=0.5
    ;;
  *)
    echo "unknown suite: $SUITE (expected kernels|comm|service)" >&2
    exit 2
    ;;
esac

JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target "$TARGET" >/dev/null

BIN="$BUILD_DIR/bench/$TARGET"
FILTER_ARGS=()
[[ -n "$FILTER" ]] && FILTER_ARGS=(--benchmark_filter="$FILTER")
if [[ "$QUICK" == 1 ]]; then
  # One fast pass; exercises every registered benchmark without caring
  # about statistical quality. (Old google-benchmark: min_time is a plain
  # double in seconds, no "s" suffix.)
  "$BIN" "${FILTER_ARGS[@]}" --benchmark_min_time=0.01 \
         --benchmark_format=console >/dev/null
  echo "bench smoke OK ($SUITE)"
else
  "$BIN" "${FILTER_ARGS[@]}" --benchmark_min_time="$MIN_TIME" \
         --benchmark_repetitions=3 \
         --benchmark_report_aggregates_only=true \
         --benchmark_format=json >"$OUT"
  echo "wrote $OUT"
fi
