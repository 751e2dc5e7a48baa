#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# flags, from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper-local --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache, binary,
# temp files, the farm store) stays under the build directory inside the
# checkout: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
