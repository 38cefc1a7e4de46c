#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# from the checkout root. Everything the build and the runs write stays
# under .bench_build/ in the checkout.
#
# Usage: bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#        bash e2ebench/run.sh --workload all
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
cd "$root"
exec "$out/bin/e2ebench" "$@"
