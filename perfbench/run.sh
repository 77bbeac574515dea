#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build cache and the binary go
# to .bench_build/ under the root, so nothing is written outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" GOTOOLCHAIN=local GOENV=off \
	GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
