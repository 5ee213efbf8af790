#!/usr/bin/env bash
# Builds kgevald and the request-level benchmark from this checkout's
# sources, then runs the benchmark with the given arguments, e.g.
#
#   bash reqbench/run.sh --workload hit-sampled --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# every file a run writes stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
# With telemetry on (the default, "local"), the go command starts a detached
# upload process that can outlive this script; turn it off before any build.
go telemetry off
go build -o "$out/bin/kgevald" ./cmd/kgevald
(cd reqbench && go build -o "$out/bin/reqbench" .)
exec "$out/bin/reqbench" --server "$out/bin/kgevald" --workdir "$out/runs" "$@"
