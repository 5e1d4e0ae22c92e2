#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload table1-fleet --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, span files) goes under .bench_build/.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/majicbench" .)
exec "$out/majicbench" -out "$out" "$@"
