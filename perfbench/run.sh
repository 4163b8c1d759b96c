#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; every
# argument passes through. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and trace files stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/smrpbench" .)
exec "$out/smrpbench" "$@"
