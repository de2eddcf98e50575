#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Run from the root of the repository: bash bench/run.sh [flags]
# Everything the build writes (the binary and Go's build cache) goes under
# .bench_build/ in the current directory; trace files go under bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -C "$here" -o "$build/vpbench" .
exec "$build/vpbench" -outdir "$here/out" "$@"
