#!/usr/bin/env bash
# Strict verification pass: builds the full tree with AddressSanitizer and
# UBSan (-DDAGSFC_SANITIZE=ON) into build-asan/ and runs the test suite
# under it. Any sanitizer report fails the run (halt_on_error, plus
# -fno-sanitize-recover=undefined at compile time). A second pass repeats
# the build with the ambient trace macros compiled in (-DDAGSFC_TRACE=ON)
# so the zero-overhead-when-disabled instrumentation path is itself
# sanitizer-clean. A third pass builds with ThreadSanitizer
# (-DDAGSFC_TSAN=ON) and runs the concurrency-heavy suites (the serve
# layer, the thread pool, and the trial runner) to catch data races in the
# snapshot/commit machinery and the lazy CSR build. A fourth pass reuses
# the TSan tree for the telemetry plane (ctest -R 'metrics|watchdog'): the
# striped counters, shared histogram cells, the /metrics HTTP scrape, and
# the slow-solve watchdog are exactly the lock-free machinery TSan is for.
# A fifth pass (same tree) runs the MVCC commit battery and the path-cache
# suites (ctest -R 'mvcc|serve|path_cache'): the 8-worker overlapping-
# footprint conflict battery, the group-commit leader/follower handoff, and
# the replica-sync invalidation path all execute under TSan.
# A sixth pass reuses the TSan tree for the layered-embedder batteries
# (ctest -R 'layered|validity'): the cross-embedder optimality
# differential, the validity fuzz over all six solvers, and the
# concurrent-solve hammer that races the lazy CSR build and shared const
# embedders across threads.
# A seventh pass runs the shard plane (ctest -R 'shard') under both trees:
# ASan/UBSan for the partition/contraction/HIER logic, TSan for the
# 8-thread cross-shard commit battery and the per-shard worker pools,
# whose multi-mutex ascending-lock commits are exactly what TSan's
# lock-order analysis is for.
# An eighth pass runs the observability plane (ctest -R
# 'lifecycle|flight|http') under both trees: ASan/UBSan for the span-ring
# index arithmetic and the HTTP error paths, TSan because the span ring is
# the one deliberately lock-free single-writer/any-reader structure in the
# repo — the concurrent collect() battery and the tail-sampling promotion
# path are exactly what its relaxed-store/acquire-load discipline must
# survive.
# Every full pass also runs the search differential suite (test_search_flat)
# and links the test-only oracle library (tests/oracles/), so the
# bit-identity contract of the CSR/workspace tier is checked under ASan/UBSan
# as well as in the plain build: the kernels — the batched
# multi-source/multi-target passes and the pruned Steiner DP included —
# against the frozen seed kernels in tests/oracles/, and every embedder
# against the SolveResult digests recorded from those kernels. The first
# pass also builds with -DDAGSFC_WERROR=ON, so a new compiler warning fails
# the run.
set -euo pipefail
cd "$(dirname "$0")/.."

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1:${UBSAN_OPTIONS:-}"
export TSAN_OPTIONS="halt_on_error=1:${TSAN_OPTIONS:-}"

run_pass() {
  local dir=$1
  local filter=$2
  shift 2
  cmake -B "$dir" -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  cmake --build "$dir" -j
  if [[ -n "$filter" ]]; then
    ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" -R "$filter"
  else
    ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
  fi
}

require_test() {
  # Guards against silently dropping a suite from the build: the named
  # ctest pattern must match at least one test in the given build dir.
  local dir=$1
  local pattern=$2
  if ! ctest --test-dir "$dir" -N -R "$pattern" | grep -q 'Total Tests: [1-9]'; then
    echo "check.sh: expected tests matching '$pattern' in $dir" >&2
    exit 1
  fi
}

run_pass "${BUILD_DIR:-build-asan}" "" -DDAGSFC_SANITIZE=ON -DDAGSFC_WERROR=ON
require_test "${BUILD_DIR:-build-asan}" 'test_search_flat'
require_test "${BUILD_DIR:-build-asan}" 'test_search_flat.Batched'
# The oracle library's two halves: the EXACT DP's own suite and the
# embedder digest suite that the recorded seed-kernel output pins.
require_test "${BUILD_DIR:-build-asan}" 'test_exact'
require_test "${BUILD_DIR:-build-asan}" 'FlatCorpusDifferential'
require_test "${BUILD_DIR:-build-asan}" 'FlatDifferential.TwoHundredRandom'
require_test "${BUILD_DIR:-build-asan}" 'test_metrics'
require_test "${BUILD_DIR:-build-asan}" 'test_watchdog'
require_test "${BUILD_DIR:-build-asan}" 'test_layered'
require_test "${BUILD_DIR:-build-asan}" 'test_validity_fuzz'
run_pass "${TRACE_BUILD_DIR:-build-asan-trace}" "" -DDAGSFC_SANITIZE=ON \
  -DDAGSFC_TRACE=ON
run_pass "${TSAN_BUILD_DIR:-build-tsan}" \
  'test_serve|test_thread_pool|test_runner|test_search_flat.Csr' \
  -DDAGSFC_TSAN=ON
# Telemetry-plane pass: same TSan tree, metrics + watchdog suites.
ctest --test-dir "${TSAN_BUILD_DIR:-build-tsan}" --output-on-failure \
  -j "$(nproc)" -R 'metrics|watchdog'
# MVCC pass: same TSan tree; the commit-pipeline battery (shadow-ledger
# fuzz, journal sync, 8-worker conflict hammer) plus the serve and
# path-cache suites that pin its determinism and invalidation contracts.
require_test "${TSAN_BUILD_DIR:-build-tsan}" 'test_mvcc'
require_test "${TSAN_BUILD_DIR:-build-tsan}" 'test_path_cache'
ctest --test-dir "${TSAN_BUILD_DIR:-build-tsan}" --output-on-failure \
  -j "$(nproc)" -R 'mvcc|serve|path_cache'
# Layered-embedder pass: same TSan tree; the cross-embedder battery, the
# six-solver validity fuzz, and the concurrent bitwise-agreement hammer.
require_test "${TSAN_BUILD_DIR:-build-tsan}" 'test_validity_fuzz'
ctest --test-dir "${TSAN_BUILD_DIR:-build-tsan}" --output-on-failure \
  -j "$(nproc)" -R 'layered|validity'
# Shard pass: the sharded-substrate suite under both sanitizer trees. The
# ASan tree already ran it in the full first pass; the require_test guards
# keep the suite from silently dropping out of either build, and the TSan
# rerun covers the cross-shard commit battery's ascending multi-mutex
# locking and the per-shard pool teardown.
require_test "${BUILD_DIR:-build-asan}" 'test_shard'
require_test "${TSAN_BUILD_DIR:-build-tsan}" 'test_shard'
ctest --test-dir "${TSAN_BUILD_DIR:-build-tsan}" --output-on-failure \
  -j "$(nproc)" -R 'shard'
# Observability pass: request-lifecycle tracing + flight recorder + HTTP
# endpoint suites under both trees. The ASan tree already ran them in the
# full first pass; the guards keep all three suites pinned in both builds,
# and the TSan rerun covers the lock-free span ring's writer/collector
# races and the flight recorder's promotion path under the worker pools.
require_test "${BUILD_DIR:-build-asan}" 'test_lifecycle'
require_test "${BUILD_DIR:-build-asan}" 'test_flight'
require_test "${BUILD_DIR:-build-asan}" 'test_http'
require_test "${TSAN_BUILD_DIR:-build-tsan}" 'test_lifecycle'
require_test "${TSAN_BUILD_DIR:-build-tsan}" 'test_flight'
require_test "${TSAN_BUILD_DIR:-build-tsan}" 'test_http'
ctest --test-dir "${TSAN_BUILD_DIR:-build-tsan}" --output-on-failure \
  -j "$(nproc)" -R 'lifecycle|flight|http'
