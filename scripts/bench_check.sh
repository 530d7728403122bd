#!/usr/bin/env bash
# bench_check.sh — the benchmark-regression gate (docs/OBSERVABILITY.md).
#
# Runs the engine micro-benchmarks fresh, converts them with benchjson
# (which stamps git commit, engine version, and GOMAXPROCS into the
# context block), and diffs sim-instrs/s against the committed baseline
# BENCH_engine.json with cmd/benchcheck. Exits non-zero on a >15%
# regression unless -warn-only is passed (CI's noise-tolerant mode), and
# in both modes when a baseline benchmark is missing from the fresh run.
#
# Usage:
#   scripts/bench_check.sh               # hard gate
#   scripts/bench_check.sh -warn-only    # annotate only
# Extra args are passed through to benchcheck (e.g. -tolerance 0.25).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# Default benchtime (not -benchtime 3x): the engine benches are sub-ms
# per op, and the gate needs ~1s of iterations for a stable number.
# GOMAXPROCS=1 as in the baseline's context block: at N > 1 go test names
# every benchmark with a -N suffix, and none would match the baseline.
GOMAXPROCS=1 go test -run '^$' -bench 'BenchmarkEngineStep|BenchmarkRunOutageFree|BenchmarkRunRFHome|BenchmarkRunBatch' . \
  | GOMAXPROCS=1 go run ./cmd/benchjson -o "$tmp"

go run ./cmd/benchcheck -baseline BENCH_engine.json -current "$tmp" "$@"
