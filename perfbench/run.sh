#!/usr/bin/env bash
# Builds the benchmark and the rightsized daemon from the checkout it is
# run in, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload quantized-diurnal --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go caches, binaries, daemon state) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/rightsized" ./cmd/rightsized
exec "$build/bin/perfbench" -build "$build" "$@"
