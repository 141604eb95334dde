#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run
# it from the root of a checkout:
#
#   bash bench/run.sh --workload fig8-closed --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the compiler's temporary files all
# stay under .bench_build/, so a run writes nothing outside the checkout.
# The build is offline: the module has no dependencies beyond the
# repository itself, which bench/go.mod reaches through a replace.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
