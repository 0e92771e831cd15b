#!/bin/sh
# Micro-benchmark bundle: what the repo's benchmark (bench/, BENCHMARK.json)
# does not measure. The ladder there owns end-to-end and per-layer time,
# checkpoint I/O and the transports; this bundle keeps the collectives at
# P = 4/16/64, the planes' enabled and disabled (zero-cost) paths and the
# solver kernel micro-samples.
#
# Produces BENCH_telemetry.json in the repo root (override the path with
# OUT=..., used by make bench-compare): one JSON document of `go test -bench`
# transcripts for the comm, telemetry, monitor, in-situ, cluster
# observability, physics-audit, hot-path kernel and performance-history
# suites.
#
# Usage: scripts/bench.sh   (or: make bench-telemetry)
set -eu

cd "$(dirname "$0")/.."
out=${OUT:-BENCH_telemetry.json}

echo "== comm benchmarks (collectives + MCI exchange) =="
# -count=3: at 30 fixed iterations these numbers swing with scheduler noise;
# benchjson keeps the min of duplicate samples, so three counts give the gate
# a stable floor on both sides of the comparison.
comm=$(go test -run '^$' \
	-bench 'BenchmarkBcast|BenchmarkAllreduce|BenchmarkAllgather|BenchmarkBarrier|BenchmarkMCIExchange' \
	-benchtime=30x -count=3 . 2>&1)
printf '%s\n' "$comm"

echo "== telemetry overhead benchmarks (disabled vs enabled path) =="
tele=$(go test -run '^$' -bench 'Benchmark' -benchmem ./internal/telemetry 2>&1)
printf '%s\n' "$tele"

echo "== monitor benchmarks (imbalance analyzer, exposition, disabled probes) =="
mon=$(go test -run '^$' -bench 'Benchmark' -benchmem ./internal/monitor 2>&1)
printf '%s\n' "$mon"

echo "== in-situ benchmarks (publish/assemble + disabled hook) =="
insitu=$(go test -run '^$' -bench 'BenchmarkInsitu' -benchmem ./internal/insitu ./internal/core 2>&1)
printf '%s\n' "$insitu"

echo "== cluster benchmarks (journal append, aggregation, exposition, trace merge, disabled hooks) =="
cluster=$(go test -run '^$' -bench 'Benchmark' -benchmem ./internal/fleet 2>&1)
printf '%s\n' "$cluster"

echo "== audit benchmarks (disabled hook, per-exchange ledger update, exposition) =="
audit=$(go test -run '^$' -bench 'BenchmarkAudit' -benchmem ./internal/audit 2>&1)
printf '%s\n' "$audit"

echo "== kernel benchmarks (line MatVec, SEM tensor-product tuned vs reference, Helmholtz/CG, DPD forces, 1D tree step; hot paths must report 0 allocs/op) =="
# GOMAXPROCS=1: these are per-core kernel costs (the bench/ ladder owns
# parallel behaviour), and without the -N suffix the sample names compare
# across hosts of any core count.
kernels=$(GOMAXPROCS=1 go test -run '^$' -bench 'BenchmarkKernel' -benchmem \
	./internal/simd ./internal/nektar3d ./internal/linalg ./internal/dpd ./internal/nektar1d 2>&1)
printf '%s\n' "$kernels"

echo "== history benchmarks (per-exchange sampling cost, disabled hook; disabled path must report 0 allocs/op) =="
history=$(go test -run '^$' -bench 'BenchmarkSampleExchange|BenchmarkObserve|BenchmarkHistoryDisabled' -benchmem ./internal/history 2>&1)
printf '%s\n' "$history"

# Assemble the bundle without extra tooling: the bench transcripts are
# embedded as JSON string arrays (one element per line) via go run so we
# need no jq/python in the container.
COMM="$comm" TELE="$tele" MONITOR="$mon" INSITU="$insitu" CLUSTER="$cluster" AUDIT="$audit" KERNELS="$kernels" HISTORY="$history" go run ./scripts/benchjson >"$out"

echo "wrote $out"
