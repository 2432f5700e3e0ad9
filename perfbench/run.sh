#!/usr/bin/env bash
# Builds the wfsd benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/server ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the repository root (go.mod, internal/server and perfbench/ are required)" >&2
    exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# HOME and XDG_CONFIG_HOME keep the go command's own files (telemetry
# counters, its env file) inside the checkout too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
    GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
    GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
