# Tier-1 gate: everything a PR must keep green. See scripts/verify.sh.
verify:
	sh scripts/verify.sh

# Communication-layer latency benchmarks (collectives + MCI exchange).
bench-comm:
	go test -run '^$$' -bench 'BenchmarkBcast|BenchmarkAllreduce|BenchmarkAllgather|BenchmarkBarrier|BenchmarkMCIExchange' -benchtime=30x .

# Full paper-evaluation benchmark suite.
bench:
	go test -bench=. -benchmem

# Micro-benchmark bundle (what bench/ does not measure): comm, observer-plane
# overhead and kernel benches, written to BENCH_telemetry.json
# (scripts/bench.sh).
bench-telemetry:
	sh scripts/bench.sh

# Regression gate: rerun the bundle into a scratch file and compare against
# the committed BENCH_telemetry.json, failing on >25% ns/op regressions
# (scripts/benchjson -compare; see README "Benchmark regression gate").
bench-compare:
	OUT=/tmp/BENCH_new.json sh scripts/bench.sh
	go run ./scripts/benchjson -compare BENCH_telemetry.json /tmp/BENCH_new.json

.PHONY: verify bench bench-comm bench-telemetry bench-compare
