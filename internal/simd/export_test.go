package simd

// GoKernels runs f with the Go loops in place of the AVX2 kernels.
func GoKernels(f func()) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	f()
}
