#!/usr/bin/env bash
# Builds clipperf from this checkout and runs it with the given arguments.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload serve-submit --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --workload fed-chaos --seed 1 --seconds 10 --trace 1
#   bash benchmark/run.sh compare base/*.out -- head/*.out
#
# The binary, the Go build cache and the span files of traced runs all go
# under .bench_build/ in the repository root; nothing is fetched.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd benchmark && go build -o "$out/clipperf" .)
exec "$out/clipperf" "$@"
