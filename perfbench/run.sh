#!/usr/bin/env bash
# Builds the benchmark from source inside this checkout and runs it.  Run it
# from the repository root; arguments pass through, for example
#
#   bash perfbench/run.sh --workload router-kv --seed 1 --seconds 24 --trace 0
#
# The build cache, the binary and span files stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
