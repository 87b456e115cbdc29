#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, module and config directories, temp
# files and the binary. The toolchain never downloads anything.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off GOENV=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"

(cd "$root/bench" && go build -o "$build/perplebench" .) >&2
cd "$root"
exec "$build/perplebench" "$@"
