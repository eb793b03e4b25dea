#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload paper_inproc --seed 1 --seconds 15 --trace 0
#
# The Go build cache and every file the benchmark writes stay under
# .bench_build/; the build works offline (GOPROXY=off, local toolchain).
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=mod GOWORK=off
PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/work" "$@"
