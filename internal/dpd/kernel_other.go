//go:build !amd64

package dpd

// useAVX2 is false off amd64: the Go loops of forcesInTile are the kernel.
var useAVX2 = false

func filterAVX2(x, y, z []float64, hit []int32, a, ownEnd, col0, col1 int, rc2 float64) int {
	panic("dpd: the AVX2 pair kernel exists on amd64 only")
}

func forceAVX2(a *pairArgs, hit []int32, n int) {
	panic("dpd: the AVX2 pair kernel exists on amd64 only")
}
