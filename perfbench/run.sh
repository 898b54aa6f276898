#!/usr/bin/env bash
# Builds etsc-serve, etsc-router, etsc-repro and the perfbench harness from
# the tree this script sits in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands
# under .bench_build/ in that root; only the harness's report and its final
# JSON line go to standard output.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/etsc-serve" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/etsc-serve here)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/work" "$out/config" "$out/gopath"
# Keep every file the Go toolchain writes (build cache, temp files,
# telemetry counters, module cache) inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/etsc-serve ./cmd/etsc-router ./cmd/etsc-repro >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
