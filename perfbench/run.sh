#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 7 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, stores, journals, traces)
# stays under .bench_build in the current directory. It fails, printing no
# result, when the program's sources are not beside it.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTELEMETRY=off

go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" -workdir "$build" "$@"
