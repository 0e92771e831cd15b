#!/bin/sh
# Tier-1 verification gate: vet, build, full test suite, then the race
# detector over the communication and coupling layers (whose ownership
# contracts the collective algorithms must uphold).
#
# Usage: scripts/verify.sh   (or: make verify)
set -eux

go vet ./...
go build ./...
go test ./...
go test -race ./internal/mpi/... ./internal/mci/... ./internal/core/... ./internal/telemetry/... ./internal/monitor/... ./internal/checkpoint/... ./internal/insitu/... ./internal/fleet/... ./internal/audit/... ./internal/history/...

# Zero-cost-when-disabled guards: instrumentation on a nil recorder and
# watchdog probes on a nil bundle must allocate nothing and stay within a few
# ns/op (see telemetry/overhead_test.go and monitor/monitor_test.go).
go test -run TestDisabledPathNearZeroCost -count=1 ./internal/telemetry
go test -run TestMonitorDisabledZeroCost -count=1 ./internal/monitor
go test -run TestInsituDisabledZeroCost -count=1 ./internal/core
go test -run TestFleetDisabledZeroCost -count=1 ./internal/fleet
go test -run TestAuditDisabledZeroCost -count=1 ./internal/audit
go test -run TestHistoryDisabledZeroCost -count=1 ./internal/core

# Fault-injection smoke: a rank killed mid-run by the deterministic fault
# harness must dump flight telemetry, resume from the last good checkpoint
# and finish bit-identical to a fault-free run (the PR 4 acceptance test).
go test -run 'TestFaultKill|TestRecoveryFromInjectedRankKill|TestRestartDeterminism' -count=1 ./internal/mpi ./internal/core

# In-situ observation acceptance (PR 5): the drop-accounting conservation law
# over faulted and unfaulted coupled runs and the causal frame-assembly
# contract, under the race detector; plus the non-blocking guarantee — a
# deliberately stalled observer must not inflate solver step time.
go test -race -run 'TestCoupledConservation|TestStreamConservation|TestQueueConservation|TestAssemblerCausalConsistency' -count=1 ./internal/insitu
go test -run 'TestInsituNonBlockingStall' -count=1 ./internal/insitu

# Transport acceptance (PR 6). The two-transport conformance suite pins the
# point-to-point/collective/fault contract as identical over the in-process
# mailboxes and TCP loopback (the ./internal/mpi/... race run above already
# covers the tcptransport package); the Irecv regressions pin FIFO matching
# and goroutine-free abandonment; the distributed test kills a real OS
# process mid-run and requires a bit-identical auto-resume.
go test -race -run 'TestConformance|TestTCPPeerDeath' -count=1 ./internal/mpi/tcptransport
go test -race -run 'TestIrecvNonOvertaking|TestAbandonedIrecv' -count=1 ./internal/mpi
go test -run 'TestDistributedRecoverySurvivesProcessKill' -count=1 ./internal/core

# Cluster observability acceptance (PR 7). The transport stats tests pin the
# per-peer wire counters and the FIN-vs-EOF close taxonomy; the scrape test
# hammers /metrics and /healthz from scraper goroutines while a two-rank TCP
# world steps (under the race detector — scrapes read what the ranks write);
# the kill -9 acceptance requires the journal lineage, the healthz 503->200
# latch cycle, /events byte-stability and a violation-free merged trace.
go test -race -run 'TestTransportStats|TestStatsAddFoldsIncarnations' -count=1 ./internal/mpi/tcptransport
go test -race -run 'TestScrapeWhileWorldSteps' -count=1 ./internal/monitor
go test -run 'TestClusterObservabilitySurvivesProcessKill' -count=1 ./internal/core

# Physics audit acceptance (PR 8). An injected flux-BC fault in a coupled
# three-solver run must trip the gi.flux budget (before any NaN/CFL guard)
# while the unfaulted control stays in tolerance; the ledger must survive a
# checkpoint round-trip bit-identically; the journal scanner's intact/torn/
# corrupt verdicts back the `nektarg events` exit code; and the audit and
# cluster expositions are pinned golden with HELP/TYPE lint.
go test -race -run 'TestAuditControlRunStaysInTolerance|TestAuditCatchesInjectedFluxFault|TestAuditLedgerResumeContinuity' -count=1 ./internal/core
go test -run 'TestScanJournalIntegrityVerdicts|TestGoldenClusterMetrics|TestClusterMetricsHelpTypeLint' -count=1 ./internal/fleet
go test -run 'TestGoldenAuditExposition|TestAuditExpositionHelpTypeLint' -count=1 ./internal/audit

# Hot-path kernel acceptance (PR 9). The parity suite pins the tuned/tiled
# SEM tensor-product kernels bit-identical to the retained scalar references
# and full solver/DPD trajectories bit-identical across worker counts, under
# the race detector with tiling enabled; the worker pool races its fork-join
# handoff. The zero-alloc guards then pin the steady-state step paths at
# exactly 0 allocs/op (run without -race: instrumentation allocates, so the
# guards skip themselves under the detector).
go test -race -run 'TestOperatorParityBitIdentical|TestStepBitIdenticalAcrossWorkerCounts' -count=1 ./internal/nektar3d
# nektar3d solves: the fast-diagonalization preconditioner is the exact
# inverse of the Grid operator on every periodicity/order/shift the solves
# use, so CG converges in one or two iterations on the benchmark patches; a
# failed solve reaches the CG watchdog before Step returns its typed error.
go test -race -run 'TestFDMInvertsOperator|TestSolvesConvergeInOneOrTwoIterations|TestFDMBeatsJacobi|TestWatchdogSeesFailedSolves' -count=1 ./internal/nektar3d
# DPD: the cell-sorted kernel must also equal, bit for bit, the linked-list
# kernel it replaced (retained as a test oracle), and an O(N^2) all-pairs sum
# on every box from two cutoffs per periodic edge up.
go test -race -run 'TestForcesBitIdenticalAcrossWorkerCounts|TestCaptureStateExcludesScratch|TestPairKernelMatchesReference' -count=1 ./internal/dpd
go test -run 'TestForcesMatchAllPairs' -count=1 ./internal/dpd
go test -race -run 'TestCGWithMatchesCG|TestCGBreakdownReportsDivergencePoint' -count=1 ./internal/linalg
go test -race -count=1 ./internal/work
go test -run 'TestSolverStepZeroAllocSteadyState|TestApplyStiffnessZeroAlloc' -count=1 ./internal/nektar3d
go test -run 'TestVVStepZeroAllocSteadyState|TestVVStepOpenBoxAllocatesOnlyOnGrowth' -count=1 ./internal/dpd
go test -run 'TestCGWithZeroAlloc' -count=1 ./internal/linalg
go test -run 'TestPoolRunZeroAlloc' -count=1 ./internal/work

# Performance-history acceptance (PR 10). A deterministic mid-run slowdown
# (the -slow-at injection hook) must fire exactly one typed step-time anomaly
# — with an auto-captured pprof profile, an anomaly flight dump on its own
# budget and a perf-anomaly journal event, all visible on /anomalies,
# /history and /cluster/history — while the unperturbed control run stays
# silent; series rings and baselines must survive a checkpoint round-trip
# bit-identically; and the sampling overhead stays under 1% of step time
# (the overhead and zero-alloc guards skip themselves under -race, so they
# run uninstrumented here).
go test -race -run 'TestHistoryControlRunNoAnomalies|TestHistoryInducedSlowdownEndToEnd|TestHistoryResumeContinuity' -count=1 ./internal/core
go test -run 'TestHistorySamplingOverhead' -count=1 ./internal/core
go test -run 'TestRingBoundsAndOrder|TestTierEnvelopeConservation|TestDetectorSustainedStepChangeFiresOnce|TestStateRoundTrip' -count=1 ./internal/history
go test -run 'TestAnomalyDumpBudgetIndependent|TestRuntimeGaugesInMetrics' -count=1 ./internal/monitor
go test -run 'TestClusterHistoryRollup' -count=1 ./internal/fleet
