#!/usr/bin/env bash
# Builds the VoiceGuard benchmark from source and runs it. Run from the
# repository root; arguments pass through to the benchmark:
#
#   bash vgbench/run.sh --workload http-mix --seed 1 --seconds 20 --trace 0
#
# Every build artefact and Go cache stays under .bench_build in the
# repository root, so the run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off GOTELEMETRY=off

go -C vgbench build -o "$out/vgbench-bin" . >&2
exec "$out/vgbench-bin" "$@"
