#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash gsbench/run.sh --workload pattern --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary, spans of traced
# runs) stays under .bench_build in the current directory, or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail
out="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) out="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd gsbench && go build -o "$out/gsbench" .)
# Heap pages the Go runtime frees are returned with MADV_FREE, so they stay
# mapped until the kernel needs them: a statement that regrows a large heap
# (the pattern 2-hop's 1.7 GB) does not page-fault it in again on every run.
export GODEBUG=madvdontneed=0
exec "$out/gsbench" --spans "$out/traces" "$@"
