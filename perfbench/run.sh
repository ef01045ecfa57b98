#!/usr/bin/env bash
# Builds the m2m benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload plan-10k --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
