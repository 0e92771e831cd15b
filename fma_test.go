package nektarg_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAdd cross-compiles each censused package for arm64,
// whose compiler fuses a product into the add it feeds unless float64()
// rounds the product first, and requires that no function in the package
// archive holds a fused multiply-add: one would move arm64's trajectories
// off amd64's in the last bit, and the AVX2 kernels off their Go oracles.
// (amd64's compiler never fuses.) Each package names functions that must be
// in its disassembly, so an empty or truncated listing cannot pass.
func TestNoFusedMultiplyAdd(t *testing.T) {
	gocmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gocmd); err != nil {
		t.Skipf("no go command to cross-compile with: %v", err)
	}
	for _, c := range []struct {
		pkg     string // the package's directory in the module
		present []string
	}{
		// The DPD pair sweep's Go loops and the step.
		{"internal/dpd", []string{"(*System).filter", "(*System).forcesInTile", "(*System).VVStep"}},
		// The Go loops that are the SEM line kernels' oracles.
		{"internal/simd", []string{"axpyGo", "MatVec", "sweepGo", "sweepRowsGo", "rowDot", "BandMulAdd", "contractGo"}},
		// The Navier-Stokes step and the operators it applies.
		{"internal/nektar3d", []string{"(*Solver).step", "(*Solver).advectInto", "(*helmholtzOp).Apply", "(*Grid).helmholtzSeed", "(*arena).liftRHS", "(*Grid).SampleVelocity", "NewGrid"}},
		// The 1D bases and factors the fast-diagonalization solve and the
		// lift are built from.
		{"internal/sem", []string{"GLL", "JacobiP", "(*Mesh1D).Factors", "(*Mesh1D).stiffEntry"}},
		// The eigensolver those factors come from, and the dense and sparse
		// products.
		{"internal/linalg", []string{"EigenSym", "SolveLUInPlace", "(*CSR).MulVec"}},
		// The metasolver's arithmetic: the mass audit's throughflow floor,
		// the 3D outlet's face flow and the interface trace of a patch
		// coupling.
		{"internal/core", []string{"throughflowRate", "(*OutletTo1D).FaceFlow", "(*PatchCoupling).apply"}},
		// The 1D arterial network's MacCormack step and its boundary and
		// junction solves.
		{"internal/nektar1d", []string{"(*Segment).interiorStep", "solveOutletWK", "(*junctionArena).solve", "(*Network).Step"}},
		// The windowed POD of the velocity history.
		{"internal/wpod", []string{"Analyze", "(*Result).Reconstruct"}},
		// The red-cell membrane's forces on the DPD particles.
		{"internal/rbc", []string{"(*Membrane).positions", "(*Membrane).AddForces"}},
		// The platelets' seeding.
		{"internal/platelet", []string{"SeedPlatelets"}},
		// The planes' running statistics: the audit ledger's and the
		// history baselines' moving references, the particle-drift
		// watchdog's.
		{"internal/audit", []string{"(*Ledger).ObserveDrift", "(*Ledger).ObserveResidual"}},
		{"internal/history", []string{"(*detector).observe"}},
		{"internal/monitor", []string{"(*Watchdogs).ObserveParticles"}},
		{"internal/stats", []string{"(*Moments).Add", "(*Histogram).BinCenters", "RMSE"}},
		// Geometry, meshing, partitioning, rheology and the scaling model.
		{"internal/geometry", []string{"SphereSurface"}},
		{"internal/mesh", []string{"CarotidTets"}},
		{"internal/partition", []string{"coarsenOnce"}},
		{"internal/hemo", []string{"RelativeViscosity045", "FahraeusLindqvistMinimum"}},
		{"internal/perfmodel", []string{"(*ContinuumModel).Time", "(*DPDModel).Time", "Table2"}},
		// The programs' own arithmetic.
		{"cmd/wpodtool", []string{"syntheticSnapshots"}},
		{"examples/pipeflow-wpod", []string{"main"}},
	} {
		t.Run(strings.TrimPrefix(c.pkg, "internal/"), func(t *testing.T) {
			t.Parallel()
			fused := armFMACensus(t, gocmd, c.pkg)
			for _, name := range c.present {
				if _, ok := fused[name]; !ok {
					t.Errorf("%s is not in the arm64 disassembly", name)
				}
			}
			for name, n := range fused {
				if n != 0 {
					t.Errorf("%s holds %d fused multiply-adds on arm64", name, n)
				}
			}
		})
	}
}

// armFMACensus builds the package in directory pkg for arm64 and counts the
// fused multiply-adds of each of its functions in the go tool objdump
// listing (of the archive, or of the program for a main package).
func armFMACensus(t *testing.T, gocmd, pkg string) map[string]int {
	archive := filepath.Join(t.TempDir(), "pkg.a")
	build := exec.Command(gocmd, "build", "-o", archive, "./"+pkg)
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("GOARCH=arm64 go build: %v\n%s", err, out)
	}
	out, err := exec.Command(gocmd, "tool", "objdump", archive).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool objdump: %v\n%s", err, out)
	}
	sym := "nektarg/" + pkg
	if !strings.HasPrefix(pkg, "internal/") {
		sym = "main"
	}
	text := regexp.MustCompile(`^TEXT ` + regexp.QuoteMeta(sym) + `\.(\S+)\(SB\)`)
	fma := regexp.MustCompile(`\bF(N?MADD|N?MSUB)[SD]\b`)
	fused := map[string]int{}
	var fn string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "TEXT ") {
			fn = "" // another package's function in a program's listing
			if m := text.FindStringSubmatch(line); m != nil {
				fn = m[1]
				fused[fn] += 0
			}
		} else if fn != "" && fma.MatchString(line) {
			fused[fn]++
		}
	}
	return fused
}
