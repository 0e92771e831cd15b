package nektar1d

import "testing"

// CapJunctionNewton lowers the junction Newton's iteration cap for one test.
func CapJunctionNewton(t testing.TB, iters int) {
	old := junctionMaxIter
	junctionMaxIter = iters
	t.Cleanup(func() { junctionMaxIter = old })
}
