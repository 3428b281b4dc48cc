#!/usr/bin/env bash
# Builds and runs the routinglens benchmark driver. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Every build and run artifact stays under .bench_build in the current
# directory: the Go build cache, temp files, binaries and work dirs.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
