#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through. The Go build cache, module cache and the
# benchmark's scratch files all stay under .bench_build/ in the checkout,
# and nothing is fetched from the network.
#
#   bash bench/run.sh [-seed N] [-seconds S] [-json out.json]
#   bash bench/run.sh -workload NAME -seed N -seconds S -trace 0|1
#   bash bench/run.sh compare A.json B.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-tmp"

export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp" TMPDIR="$build/go-tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
