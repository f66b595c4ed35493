#!/usr/bin/env bash
# Builds the perfbench harness from the source tree and runs it. Run from the
# repository root:
#
#   bash cmd/perfbench/run.sh --workload interactive --seed 1 --seconds 6 --trace 0
#
# Every build product, the Go build cache and the run artifacts stay under
# .bench_build/ in the repository root, and the toolchain is kept offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C cmd/perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
