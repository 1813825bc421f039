#!/usr/bin/env bash
# Builds the Search-level benchmark from source and runs it with the
# arguments given, from the root of a checkout:
#
#   bash searchbench/run.sh --workload fanout-tcp --seed 1 --seconds 15 --trace 0
#
# The build cache, the Go tool's own state, temporary files and the binary
# all stay under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/searchbench" -o "$out/searchbench" .
cd "$root"
exec "$out/searchbench" "$@"
