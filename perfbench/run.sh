#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it. Run from the
# repository root; arguments pass through, e.g.
#   bash perfbench/run.sh --workload star-olap --seed 1 --seconds 10 --trace 0
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
