#!/usr/bin/env bash
# Builds perfbench from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload audit_hot --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the Go tool's own state all stay
# under .bench_build/ in the current directory, so a run writes nothing
# outside the checkout. The first run compiles the standard library
# into that cache; later runs reuse it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
