#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the checkout
# root: perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build artifact (Go build cache, temporaries, the binary) stays
# under .bench_build/ in the checkout, and the toolchain never reaches the
# network.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The Go environment file, telemetry counters and module cache live under
# the user's home by default; keep them under .bench_build/ as well.
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
go -C perfbench build -buildvcs=false -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
