#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dss-throttle --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the go command's own config
# directory stay under .bench_build, so a run writes nothing outside the
# checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
