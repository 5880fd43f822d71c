#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Everything the build leaves behind (Go's build cache,
# temporary files, the binary) and everything the run writes (data dirs of
# the disk workload) stays under .bench_build/ at the checkout's root, so
# the benchmark reads and writes nothing outside its checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$build/arjuna-bench" .
exec "$build/arjuna-bench" "$@"
