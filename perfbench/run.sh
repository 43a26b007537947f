#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload online_score --seed 1 --seconds 20 --trace 0
#
# Every build product and Go cache lives under .bench_build/ in the
# checkout; nothing is fetched (the module needs only the standard
# library and the engine's own packages).
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
