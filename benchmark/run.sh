#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout, so a run reads and
# writes nothing outside it. Without the ptsbench module one level up
# there is nothing to measure and the build fails, as it must.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
