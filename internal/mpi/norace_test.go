//go:build !race

package mpi

// raceEnabled is false in uninstrumented builds; see race_test.go.
const raceEnabled = false
