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
# like `find src -type f | xargs cat | wc -l`), then the settable fields
# of each configuration struct in KNOB_STRUCTS, so changes report net
# lines and knob counts the same way; it is a report, not a gate.
#
# `waits` fails on any untimed `.wait(` in src/ that the allow-list below
# does not name (the no-silent-hang gate); `all` runs it first.
#
# Usage: scripts/ci.sh [all|test|stress|tsan|portable|coverage|loc|waits]
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

# Every `.wait(` call site in src/, as "<file>|<trimmed source line>", one
# entry per site, each with why it may block without a deadline.  A new
# site fails the gate until it gets a deadline or a detector, or an entry
# here; a deleted site fails it until its entry goes too.
WAIT_ALLOW=(
  # The prefetch reader idles until a request; the cache's destructor sets
  # stop and notifies.
  "src/cache/activation_cache.cpp|pf_.work.wait(lk, [&] { return pf_.stop || pf_.has_request; });"
  # fetch waits for the reader staging this very sample: one bounded disk
  # read, after which the reader clears busy.
  "src/cache/activation_cache.cpp|pf_.staged_ready.wait(lk, [&] { return !pf_.busy || pf_.stop; });"
  # A blocking send waits out queued isends on its (to, tag) key; the
  # sender thread delivers them or defers a failure, which also wakes it.
  "src/dist/communicator.cpp|drained_cv_.wait(lk, [&] {"
  # flush_sends: the same drain, over every key.
  "src/dist/communicator.cpp|drained_cv_.wait(lk, [&] {"
  # The sender thread idles until an isend; the destructor sets stop_.
  "src/dist/communicator.cpp|async_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });"
  # The untimed mailbox receive (CommPolicy::recv_timeout_ms = 0) ends on
  # a message, a close or a peer death.  Open: an in-process peer that
  # never sends blocks it forever; it needs a deadlock detector (ROADMAP).
  "src/dist/transport.cpp|arrived_.wait(lock, ready);"
  # Posted forward-hidden receive: PendingRecv::wait is the policy
  # receive, timed when recv_timeout_ms is set, else the mailbox wait above.
  "src/pipeline/stage_worker.cpp|state.hidden = pf.hidden.wait();"
  # Posted forward-adapter receive: as the hidden one.
  "src/pipeline/stage_worker.cpp|if (pf.adapter.valid()) state.adapter = pf.adapter.wait();"
  # Posted pad-mask receive: as the hidden one.
  "src/pipeline/stage_worker.cpp|if (pf.mask.valid()) state.pad_mask = pf.mask.wait();"
  # Posted backward-gradient receive: as the hidden one.
  "src/pipeline/stage_worker.cpp|Tensor incoming = posted->second.grad.wait();"
  # A pool worker idles until a task; the destructor sets stopping_.
  "src/common/thread_pool.cpp|task_ready_.wait(wait_lock,"
  # parallel_for joins its chunks; each runs on a worker or the caller and
  # returns, since nested dispatch from a worker runs inline.
  "src/common/thread_pool.cpp|done_cv.wait(done_lock, [&] { return remaining == 0; });"
  # wait_idle returns when every admitted job has finished or been
  # cancelled.
  "src/service/dispatcher.cpp|idle_cv_.wait(dispatch_lock, [this] { return active_ == 0; });"
  # A dispatcher worker idles until a job is ready; shutdown sets
  # stopping_.
  "src/service/dispatcher.cpp|ready_cv_.wait(dispatch_lock,"
)

waits_gate() {
  echo "=== untimed waits in src/ against the allow-list ==="
  local found allowed
  found="$(grep -rnF '.wait(' src | sed -E 's/^([^:]+):[0-9]+:[[:space:]]*/\1|/' | sort || true)"
  allowed="$(printf '%s\n' "${WAIT_ALLOW[@]}" | sort)"
  if [[ "$found" != "$allowed" ]]; then
    echo "'.wait(' sites in src/ differ from WAIT_ALLOW in scripts/ci.sh" \
         "(< listed but gone, > present but not listed):" >&2
    diff <(echo "$allowed") <(echo "$found") >&2 || true
    return 1
  fi
  echo "waits OK: ${#WAIT_ALLOW[@]} allowed sites"
}

# src/ lines per module, then the total.
loc_report() {
  local dir
  for dir in src/*/; do
    printf '%-16s %6d\n' "$(basename "$dir")" \
      "$(find "$dir" -type f -print0 | xargs -0 cat | wc -l)"
  done
  printf '%-16s %6d\n' total "$(find src -type f -print0 | xargs -0 cat | wc -l)"
  local knobs
  for knobs in $KNOB_STRUCTS; do
    printf '%-16s %6d fields\n' "${knobs##*:}" \
      "$(count_fields "${knobs%%:*}" "${knobs##*:}")"
  done
}

# Configuration structs whose settable fields `loc` counts (header:struct).
KNOB_STRUCTS="src/core/session.hpp:SessionConfig
src/pipeline/runners.hpp:RunConfig
src/pipeline/runners.hpp:CachedRunConfig
src/sim/scenarios.hpp:ScenarioConfig
src/planner/profile.hpp:PlannerInput
src/dist/communicator.hpp:CommPolicy
src/dist/tcp_transport.hpp:TcpTuning"

# Data members declared directly in `struct NAME { ... };` of FILE: the
# top-level statements ending in ';' that are not functions, types or
# static/using declarations (multi-line declarations are joined first).
count_fields() {
  awk -v name="$2" '
    !body && $0 ~ "^struct " name " [{]" { body = 1; depth = 1; next }
    body {
      line = $0
      sub(/\/\/.*/, "", line)
      if (depth == 1) stmt = stmt " " line
      depth += gsub(/[{]/, "{", line) - gsub(/[}]/, "}", line)
      if (depth == 0) { print n + 0; exit }
      if (depth != 1 || stmt !~ /[;}][ \t]*$/) next
      decl = stmt
      sub(/^[ \t]+/, "", decl)
      sub(/[ \t]*(=|[{]).*$/, "", decl)
      sub(/[ \t]*;[ \t]*$/, "", decl)
      if (stmt ~ /;[ \t]*$/ && decl !~ /\)( const)?$/ &&
          decl !~ /^(struct|enum|class|using|static|friend|typedef)[ \t]/)
        ++n
      stmt = ""
    }' "$1"
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
  waits)
    waits_gate
    ;;
  all)
    waits_gate
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
    echo "unknown mode: $MODE (expected all|test|stress|tsan|portable|coverage|loc|waits)" >&2
    exit 2
    ;;
esac
