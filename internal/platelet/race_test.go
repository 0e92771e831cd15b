//go:build race

package platelet

// raceEnabled reports that the race detector instruments this build; the
// zero-alloc guard skips then (instrumentation allocates).
const raceEnabled = true
