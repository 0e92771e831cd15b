//go:build race

package mpi

// raceEnabled reports that the race detector instruments this build; the
// allocation guard skips then (instrumentation allocates).
const raceEnabled = true
