package dpd

import (
	"unsafe"

	"nektarg/internal/simd"
)

// useAVX2 selects the AVX2 pair-sweep kernel (kernel_amd64.s) from simd's
// one CPUID probe: AVX2 and POPCNT in the processor, and the YMM state
// enabled by the operating system. The Go loops are the oracle it must equal
// bit for bit (TestAVX2KernelMatchesGo, FuzzPairKernel).
var useAVX2 = simd.HasAVX2()

// filterAVX2 is filter over the two candidate ranges of entry a, (a, ownEnd)
// and [col0, col1), four candidates per instruction: it writes the hits to
// hit[0:n] in ascending order and returns n. The last vector of a range is
// masked, so it reads up to three entries past the range's end, and it stores
// four indices per vector: x, y, z and hit must reach three entries beyond
// every index it touches (gatherRow's padding). No axis may be short.
//
//go:noescape
func filterAVX2(x, y, z []float64, hit []int32, a, ownEnd, col0, col1 int, rc2 float64) (n int)

// forceAVX2 is the force loop of forcesInTile over hit[:n], four pairs per
// vector: the same operations in the same order as the Go loop, a lane that
// the Go loop skips contributing +0. The reactions go straight into pj.F or
// the halo, lane by lane, and the sum of i's forces into a.fx, a.fy, a.fz.
// Like filterAVX2 it reads hit up to three entries past n.
//
//go:noescape
func forceAVX2(a *pairArgs, hit []int32, n int)

// forceAVX2 addresses particle j at parts + 96 j and loads its Species and
// ID as one 16-byte pair: a Particle layout that breaks either fails to
// compile here.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(Particle{})-96]
	_ = [1]struct{}{}[unsafe.Offsetof(Particle{}.ID)-unsafe.Offsetof(Particle{}.Species)-8]
)
