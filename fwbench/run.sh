#!/usr/bin/env bash
# Builds the benchmark and the flashwalkerd daemon from this checkout, then
# runs one workload. Run it from the repository root:
#
#   bash fwbench/run.sh --workload tt-fig5 --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and traced runs' spans and profiles
# stay under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(
	cd fwbench
	go build -o "$out/bin/fwbench" .
	go build -o "$out/bin/flashwalkerd" flashwalker/cmd/flashwalkerd
) >&2

exec "$out/bin/fwbench" -daemon "$out/bin/flashwalkerd" -out "$out/fwbench" "$@"
