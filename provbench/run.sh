#!/usr/bin/env bash
# Builds the PROV-IO benchmark from source and runs it. Run from the
# repository root:
#
#   bash provbench/run.sh --workload ingest-dassa --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/provbench" && go build -o "$out/provbench" .)
exec "$out/provbench" "$@"
