#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# tree it sits in and runs it, keeping every byte it writes inside the
# checkout — the Go build cache and the binaries under .bench_build/,
# results under bench/out/. `go run ./bench` does the same measurement
# with the user's own Go cache.
#
# In a directory without the repository's go.mod the build fails, and so
# does this script, before anything is printed to stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
