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
go test ./...
# internal/rbc stays out of the race pass for time: 273 s under the detector
# against 24 s without (the whole rest of the pass takes about 5 minutes), and
# it starts no goroutine of its own — its only concurrency is dpd's force
# tiling, which the dpd package's race run covers.
go test -race $(go list ./internal/... ./cmd/... | grep -v '/internal/rbc$')
