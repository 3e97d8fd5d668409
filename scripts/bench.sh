#!/usr/bin/env bash
# Runs the per-frame microbenchmarks and the headline suite-grid
# benchmark, and records ns/op, B/op and allocs/op per benchmark into
# BENCH_single_trial.json (section "current", and appended to its
# "history" list; the pinned "baseline" section holding the
# pre-optimization numbers is preserved).
#
#   scripts/bench.sh              # full run, updates BENCH_single_trial.json
#   GRID_BENCHTIME=1x scripts/bench.sh   # quicker smoke
#   SECTION=mybranch scripts/bench.sh    # record under another section
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${OUT:-BENCH_single_trial.json}
SECTION=${SECTION:-current}
GRID_BENCHTIME=${GRID_BENCHTIME:-5x}
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

# Per-package hot-leaf microbenchmarks (scene raster, nn/tensor layers,
# codec, tracer frame path, client inference, kernel event churn,
# shared-link transfer).
go test -run '^$' -bench . -benchmem \
    ./internal/scene/ ./internal/nn/ ./internal/tensor/ ./internal/codec/ \
    ./internal/trace/ ./internal/agent/ ./internal/sim/ | tee "$TMP"

# Headline single-worker grid (the floor under the whole evaluation).
go test -run '^$' -bench 'BenchmarkSuiteGridSequential' \
    -benchtime "$GRID_BENCHTIME" . | tee -a "$TMP"

# Fleet-scale sweeps pinned by benchguard: the per-epoch fault
# bookkeeping loop, the diurnal sweep's arrival, placement and
# surrogate layers in isolation, and the surrogate/streaming scale
# contracts (one iteration each — they assert their own scale
# internally).
go test -run '^$' -bench 'BenchmarkFaultChurnBookkeeping$|BenchmarkPlacementSaturated|BenchmarkArrivalSource$' \
    -benchmem ./internal/fleet/ | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkSurrogateEpoch$' -benchmem ./internal/core/ | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkSurrogateSweep$|BenchmarkDiurnalMillionSweep$' \
    -benchtime 1x -benchmem . | tee -a "$TMP"

python3 scripts/benchjson.py "$TMP" "$OUT" "$SECTION"
