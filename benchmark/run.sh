#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload all --seed 1
#   bash benchmark/run.sh --workload bfs_sweep --seed 3 --seconds 10 --trace 0
#
# The build cache, temporary files, the go command's configuration and
# telemetry directory, and the binary all stay under .bench_build/ at the
# repository root. The toolchain is pinned to the local one with the module
# proxy off, so the script never reaches outside the checkout. The
# benchmark module resolves crcwpram from the parent directory: run outside
# a full checkout, the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/benchmark" && go build -o "$out/crcwbenchmark" .)
exec "$out/crcwbenchmark" "$@"
