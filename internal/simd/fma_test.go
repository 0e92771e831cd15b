package simd

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestKernelsHaveNoFMA cross-compiles the package for arm64, whose compiler
// fuses a product into the add it feeds unless float64() rounds the product
// first, and requires that no function in the package archive holds a fused
// multiply-add. The Go loops are the AVX2 kernels' oracle and the kernels
// round every product, so one fused add would move arm64's operators off
// amd64's in the last bit. The four line kernels' Go loops must be in the
// disassembly, so an empty or truncated listing cannot pass.
func TestKernelsHaveNoFMA(t *testing.T) {
	gocmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gocmd); err != nil {
		t.Skipf("no go command to cross-compile with: %v", err)
	}
	archive := filepath.Join(t.TempDir(), "simd.a")
	build := exec.Command(gocmd, "build", "-o", archive, ".")
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("GOARCH=arm64 go build: %v\n%s", err, out)
	}
	out, err := exec.Command(gocmd, "tool", "objdump", archive).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool objdump: %v\n%s", err, out)
	}
	text := regexp.MustCompile(`^TEXT nektarg/internal/simd\.(\S+)\(SB\)`)
	fma := regexp.MustCompile(`\bF(N?MADD|N?MSUB)[SD]\b`)
	fused := map[string]int{}
	var fn string
	for _, line := range strings.Split(string(out), "\n") {
		if m := text.FindStringSubmatch(line); m != nil {
			fn = m[1]
			fused[fn] += 0
		} else if fma.MatchString(line) {
			fused[fn]++
		}
	}
	for _, name := range []string{"axpyGo", "MatVec", "sweepGo", "rowDot", "BandMulAdd"} {
		if _, ok := fused[name]; !ok {
			t.Errorf("%s is not in the arm64 disassembly", name)
		}
	}
	for name, n := range fused {
		if n != 0 {
			t.Errorf("%s holds %d fused multiply-adds on arm64", name, n)
		}
	}
}
