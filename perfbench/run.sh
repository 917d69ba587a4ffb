#!/usr/bin/env bash
# Builds the simulator benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload conv2gb-gcc-smart --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/ in
# the current directory (compiled binary, Go caches, trace output).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"

# The simulator is the only dependency (a local replace), so nothing is
# fetched: the toolchain and the module proxy are pinned off. The go
# command's caches and its telemetry counters (kept under the user config
# directory) stay under $out.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
