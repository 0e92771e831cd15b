#!/usr/bin/env bash
# Build the benchmark harness once, then run it; every argument goes to the
# harness (see bench/README.md):
#
#   bash bench/run.sh -seed 7                  all four workloads, interleaved passes
#   bash bench/run.sh -seed 7 -trace 1         the traced runs: per-layer metrics
#   bash bench/run.sh -aa                      two sets of the same code, compared
#   bash bench/run.sh --workload full --seed 7 --seconds 30 --trace 0
#
# This is the command BENCHMARK.json names. Everything the build and the run
# write stays inside the checkout: the Go caches and the binary under
# .bench_build/, inputs, traces and temporary checkpoint stores under
# bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "bench/run.sh: $root holds no program to measure (no go.mod, no internal/)" >&2
	exit 2
fi
build="$root/.bench_build"
# The go command's telemetry is switched off in the private config directory
# before go first runs: with a fresh one it forks a detached uploader child
# that can outlive this script.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local \
	go build -o "$build/nektarg-bench" ./bench
exec "$build/nektarg-bench" "$@"
