#!/usr/bin/env bash
# Builds the funnel benchmark from the checkout's sources and runs it.
#
#   bash funnelbench/run.sh --workload funnel --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# the binary and every directory the workloads write stay under
# .bench_build/ in the current directory. The last line of standard
# output is the JSON result; build output goes to standard error.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS=-mod=readonly

(cd "$root/funnelbench" && go build -o "$build/funnelbench" .) >&2
exec "$build/funnelbench" -workdir "$build/work" "$@"
