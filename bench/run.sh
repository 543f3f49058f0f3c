#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository root and runs
# it with the given flags, e.g.
#
#   bash bench/run.sh --workload closed-cpu --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and toolchain config all live
# under .bench_build/, so a run writes nothing outside the checkout, and
# the build never reaches the network.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -buildvcs=false -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
