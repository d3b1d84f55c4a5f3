#!/usr/bin/env bash
# Builds the benchmark harness from the checkout it is run in and runs
# it with the given arguments. Run from the repository root:
#
#   bash dlbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, telemetry) stays under
# .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go -C dlbench build -o "$out/dlbench" .
exec "$out/dlbench" "$@"
