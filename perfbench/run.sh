#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload miss-stream --seed 1 --seconds 10 --trace 0
#
# Every file the build writes (binary, Go build cache and temporary
# files, Go config) stays under .bench_build/perfbench.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= \
	go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
