#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; arguments pass through to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload serve --seed 3 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the go command's own config and
# telemetry files stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

(cd "$root/e2ebench" && go build -trimpath -o "$out/e2ebench" .)
exec "$out/e2ebench" --root "$root" "$@"
