#!/usr/bin/env bash
# Capture the sim/counter core benchmarks into BENCH_simcore.json so the
# benchmark trajectory is committed and future PRs can diff against it.
#
# One pass at the default GOMAXPROCS; each entry records its own num_cpu
# and gomaxprocs.
#
#   make bench                  # or: ./scripts/bench.sh
#   BENCH_TIME=10x make bench   # heavier sampling
#   BENCH_PAT='BenchmarkSimLitmus7' ./scripts/bench.sh  # subset
set -euo pipefail
cd "$(dirname "$0")/.."

PAT=${BENCH_PAT:-'BenchmarkSim|BenchmarkCount|BenchmarkFleet|BenchmarkTrace|BenchmarkCheckpointSave|BenchmarkRunOrchestration'}
# 5x floor: with 2x samples a single descheduling blip lands in the
# committed numbers; five ops lets go test's trimmed mean absorb it.
TIME=${BENCH_TIME:-5x}
OUT=${BENCH_OUT:-BENCH_simcore.json}

# BenchmarkFleet*, BenchmarkCheckpointSave and BenchmarkRunOrchestration
# live in internal/campaign (they need the dispatch internals);
# everything else is in the root package.
go test -run '^$' -bench "$PAT" -benchmem -benchtime "$TIME" . ./internal/campaign |
    go run ./cmd/perple-bench -o "$OUT"
