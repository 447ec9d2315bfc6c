#!/usr/bin/env bash
# Builds the benchmark (and with it the detection engine, server and
# cluster it links from the enclosing module) from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload offline-table1 --seed 1 --seconds 10 --trace 0
#
# Workloads: offline-table1, stream-ndjson-snapshot, stream-binary-rf2.
# The last line of standard output is the JSON result; notes and the
# metric table go to standard error. Build outputs, the Go build cache,
# the toolchain's config and telemetry, temporary files and span dumps
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
