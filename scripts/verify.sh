#!/bin/sh
# Tier-1 verification gate: gofmt, vet, build, the full test suite, then the
# suite again under the race detector. The acceptance tests of every layer
# (bit-identical restart and recovery, kill -9 of a real process, golden
# expositions, kernel parity, the cmd/nektarg fingerprints) are ordinary
# tests and run in both passes; the zero-alloc and overhead guards, which the
# detector's instrumentation would fail, skip themselves under -race and so
# are checked by the first pass only.
#
# Usage: scripts/verify.sh   (or: make verify)
set -eux

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l . is not clean:" "$unformatted" >&2
	exit 1
fi
go vet ./...
go build ./...
# The AVX2 pair and SEM line kernels are amd64 assembly; every other
# architecture builds the Go loops they are checked against.
GOARCH=arm64 go build ./...
# A GOAMD64=v3 build lets the compiler choose FMA, AVX2 and BMI2
# instructions: the recorded fingerprints and the kill-and-resume run must
# hold in a v3 build too (on a host that runs v3 code).
if grep -qw fma /proc/cpuinfo && grep -qw avx2 /proc/cpuinfo && grep -qw bmi2 /proc/cpuinfo && grep -qw movbe /proc/cpuinfo; then
	GOAMD64=v3 go test -count=1 -run 'TestRunFingerprints|TestRunKillAtSameFingerprint' ./cmd/nektarg
fi
go test ./...
# The trajectory must not depend on the host's core count: the recorded
# fingerprints and the kill-and-resume run again at GOMAXPROCS 1, 2 and 3.
go test -count=1 -cpu 1,2,3 -run 'TestRunFingerprints|TestRunKillAtSameFingerprint' ./cmd/nektarg
# Fuzz smoke: `go test` above only replays each native fuzz target's seed
# corpus; here every target also mutates for 3 s. A crash it finds lands in
# that target's testdata/fuzz corpus, to be committed with the fix.
for target in \
	'FuzzFrame ./internal/mpi/tcptransport' \
	'FuzzHandshake ./internal/mpi/tcptransport' \
	'FuzzPlateletApplyState ./internal/platelet' \
	'FuzzReadJournal ./internal/fleet' \
	'FuzzPublishStatus ./internal/fleet' \
	'FuzzRestoreCheckpoint ./internal/core' \
	'FuzzReadFile ./internal/checkpoint' \
	'FuzzHistoryApplyState ./internal/history' \
	'FuzzAuditApplyState ./internal/audit' \
	'FuzzLoadConfig ./internal/config' \
	'FuzzBuildConfig ./internal/config' \
	'FuzzPairKernel ./internal/dpd' \
	'FuzzSEMKernels ./internal/simd'; do
	set -- $target
	go test -run '^$' -fuzz "^$1\$" -fuzztime 3s "$2"
done
# internal/rbc stays out of the race pass for time: 273 s under the detector
# against 24 s without (the whole rest of the pass takes about 5 minutes), and
# it starts no goroutine of its own — its only concurrency is dpd's force
# tiling, which the dpd package's race run covers.
go test -race $(go list ./internal/... ./cmd/... | grep -v '/internal/rbc$')
