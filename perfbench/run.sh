#!/usr/bin/env bash
# Builds the session benchmark from source and runs it with the given flags:
#   bash perfbench/run.sh --workload query --seed 1 --seconds 20 --trace 0
# Run from the repository root. Everything the Go tool and the benchmark
# write (build cache, temporary files, telemetry, the binary, traces) stays
# in $CARGO_TARGET_DIR (default .bench_build) under the current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export CARGO_TARGET_DIR="$out" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
