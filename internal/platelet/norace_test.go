//go:build !race

package platelet

// raceEnabled is false in uninstrumented builds; see race_test.go.
const raceEnabled = false
