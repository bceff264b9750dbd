#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash silobench/run.sh --workload fit-narrow --seed 1 --seconds 25 --trace 0
#
# The Go build cache, module cache, temporary build files and binary live
# under .bench_build/ in the current directory, so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
mkdir -p "$GOTMPDIR"

(cd "$root/silobench" && go build -o "$build/silobench" .)
exec "$build/silobench" "$@"
