#!/usr/bin/env bash
# Produces a structured solve trace from a corpus instance: builds the CLI,
# embeds tests/corpus/ring12 with MBBE, and writes trace_ring12.json at the
# repo root as Chrome trace_event JSON. Load the file in Perfetto
# (https://ui.perfetto.dev) or chrome://tracing to walk the solve layer by
# layer; the per-solve summary is printed on stdout.
#
#   scripts/trace_demo.sh [instance] [algorithm]
#
# defaults to ring12 / mbbe; any tests/corpus/<instance>.{net,sfc}.txt pair
# and any of ranv|minv|bbe|mbbe|layered work.
set -euo pipefail
cd "$(dirname "$0")/.."

INSTANCE=${1:-ring12}
ALGORITHM=${2:-mbbe}
OUT=trace_${INSTANCE}.json

cmake -B build -G Ninja
cmake --build build --target dagsfc_cli -j

./build/examples/dagsfc_cli \
  --network "tests/corpus/${INSTANCE}.net.txt" \
  --sfc "tests/corpus/${INSTANCE}.sfc.txt" \
  --algorithm "$ALGORITHM" \
  --trace "$OUT"

echo
echo "wrote $OUT — open it at https://ui.perfetto.dev or chrome://tracing"
