#!/usr/bin/env bash
# Regenerates BENCH_layered_gap.json: builds the bench tree in Release and
# runs the layered-vs-greedy cost-gap suite (bench/layered_vs_greedy.cpp).
# Instances are sized so LAYERED, the exact engine, runs on every one; the
# recorded JSON therefore carries, per workload shape, the heuristics' cost
# gap relative to LAYERED and the wall-clock means on the machine that
# produced it. (The committed file predates this: its `exact` columns and
# `exact_bitwise_matches` counts measured the EXACT per-layer DP, which is
# now a test-only oracle in tests/oracles/.)
#
# Usage: scripts/bench_layered.sh [extra bench_layered_vs_greedy flags...]
# The build directory defaults to build-bench/ (override with BUILD_DIR).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"

cmake -B "$BUILD_DIR" -G Ninja -DCMAKE_BUILD_TYPE=Release \
  -DDAGSFC_BUILD_TESTS=OFF -DDAGSFC_BUILD_EXAMPLES=OFF \
  ${CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j --target layered_vs_greedy

out="$("$BUILD_DIR/bench/bench_layered_vs_greedy" "$@")"
echo "$out"
echo "$out" | grep '^JSON: ' | sed 's/^JSON: //' > BENCH_layered_gap.json
echo
echo "wrote BENCH_layered_gap.json"
