#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#   bash perfbench/run.sh --workload search --seed 1 --seconds 24 --trace 0
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# GOMODCACHE and XDG_CONFIG_HOME keep the module cache, the go command's
# env file and its telemetry counters inside the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" -out "$out/run" "$@"
