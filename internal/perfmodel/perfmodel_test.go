package perfmodel

import (
	"math"
	"testing"

	"nektarg/internal/mesh"
)

// within checks relative agreement.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if math.Abs(got-want)/math.Abs(want) > tol {
		t.Fatalf("%s: got %v want %v (tol %v)", name, got, want, tol)
	}
}

func TestBGPContinuumMatchesTable4References(t *testing.T) {
	m := BGP().Continuum
	// Calibration rows must reproduce nearly exactly.
	within(t, "3 patches @1024", m.Time(3, mesh.PaperPatchElements, 1024, 10), 996.98, 0.005)
	within(t, "3 patches @2048", m.Time(3, mesh.PaperPatchElements, 2048, 10), 650.67, 0.005)
	// Predicted rows within a few percent.
	within(t, "8 patches @2048", m.Time(8, mesh.PaperPatchElements, 2048, 10), 685.23, 0.01)
	within(t, "16 patches @2048", m.Time(16, mesh.PaperPatchElements, 2048, 10), 703.4, 0.01)
	within(t, "8 patches @1024", m.Time(8, mesh.PaperPatchElements, 1024, 10), 1025.33, 0.04)
	within(t, "16 patches @1024", m.Time(16, mesh.PaperPatchElements, 1024, 10), 1048.75, 0.04)
}

func TestBGPStrongScalingEfficiencyShape(t *testing.T) {
	m := BGP().Continuum
	// Paper: 74.5-76.6% when doubling cores per patch.
	for _, np := range []int{3, 8, 16} {
		eff := m.StrongEfficiency(np, mesh.PaperPatchElements, 1024, 10)
		if eff < 0.70 || eff > 0.82 {
			t.Fatalf("np=%d: strong efficiency %v outside paper band", np, eff)
		}
	}
}

func TestXT5ContinuumMatchesTable3(t *testing.T) {
	m := XT5().Continuum
	within(t, "XT5 3 patches", m.Time(3, mesh.PaperPatchElements, 2048, 10), 462.3, 0.005)
	within(t, "XT5 8 patches", m.Time(8, mesh.PaperPatchElements, 2048, 10), 477.2, 0.005)
	within(t, "XT5 16 patches", m.Time(16, mesh.PaperPatchElements, 2048, 10), 505.1, 0.01)
}

func TestWeakScalingEfficienciesMatchPaperBand(t *testing.T) {
	// Paper Table 3: BG/P 95% (8 patches) and 92% (16); XT5 96.9% / 91.5%.
	bgp := BGP().Continuum
	e8 := bgp.WeakEfficiency(3, 8, mesh.PaperPatchElements, 2048, 10)
	e16 := bgp.WeakEfficiency(3, 16, mesh.PaperPatchElements, 2048, 10)
	if e8 < 0.93 || e8 > 0.97 {
		t.Fatalf("BG/P 8-patch efficiency %v", e8)
	}
	if e16 < 0.90 || e16 > 0.94 {
		t.Fatalf("BG/P 16-patch efficiency %v", e16)
	}
	if !(e16 < e8) {
		t.Fatal("efficiency must decrease with patch count")
	}
}

func TestBGPDPDMatchesTable5(t *testing.T) {
	m := BGP().DPD
	within(t, "28672 cores", m.Time(PaperDPDParticles, 28672, 4000), 3205.58, 0.005)
	within(t, "61440 cores", m.Time(PaperDPDParticles, 61440, 4000), 1399.12, 0.015)
	within(t, "126976 cores", m.Time(PaperDPDParticles, 126976, 4000), 665.79, 0.005)
}

func TestDPDSuperlinearSpeedup(t *testing.T) {
	// The paper reports 107% and 102% efficiencies on BG/P; the cache model
	// must reproduce >100% on both doublings.
	m := BGP().DPD
	eff := func(c1, c2 int) float64 { // t(c1)·c1 / (t(c2)·c2)
		return m.Time(PaperDPDParticles, c1, 4000) * float64(c1) / (m.Time(PaperDPDParticles, c2, 4000) * float64(c2))
	}
	e1, e2 := eff(28672, 61440), eff(61440, 126976)
	if e1 <= 1.0 || e1 > 1.15 {
		t.Fatalf("first doubling efficiency %v", e1)
	}
	if e2 <= 1.0 || e2 > 1.10 {
		t.Fatalf("second doubling efficiency %v", e2)
	}
	if e2 >= e1 {
		t.Fatal("superlinearity must fade as per-core count shrinks")
	}
}

func TestXT5DPDMatchesAndPredictsBlankCell(t *testing.T) {
	m := XT5().DPD
	within(t, "17280 cores", m.Time(PaperDPDParticles, 17280, 4000), 2193.66, 0.005)
	within(t, "34560 cores", m.Time(PaperDPDParticles, 34560, 4000), 762.99, 0.005)
	// The 93,312-core cell is blank in the paper; the model must at least
	// predict a plausible monotone continuation.
	t3 := m.Time(PaperDPDParticles, 93312, 4000)
	if t3 <= 0 || t3 >= 762.99/2 {
		t.Fatalf("93312-core prediction %v not a plausible continuation", t3)
	}
}

func TestCoupledTimeAddsExchanges(t *testing.T) {
	ma := BGP()
	noEx := ma.DPD.Time(PaperDPDParticles, 61440, 4000)
	withEx := ma.CoupledTime(PaperDPDParticles, 61440, 4000, 200)
	if withEx <= noEx {
		t.Fatal("coupling exchanges must add time")
	}
	if withEx-noEx > 0.01*noEx {
		t.Fatalf("exchange overhead %v unreasonably large", withEx-noEx)
	}
}

func TestTable2FullAdjacencyWins(t *testing.T) {
	tbl := Table2()
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Pairwise: strategy (b) must beat strategy (a) at every core count,
	// reproducing the paper's observation.
	for i := 0; i < 8; i += 2 {
		ta := tbl.Rows[i].Measured
		tb := tbl.Rows[i+1].Measured
		if tb >= ta {
			t.Fatalf("cores row %d: full adjacency (%v) not faster than face-only (%v)", i/2, tb, ta)
		}
	}
	// Calibration cells (512 and 2048, strategy a) must match the paper.
	within(t, "a@512", tbl.Rows[0].Measured, 1181.06, 0.01)
	within(t, "a@2048", tbl.Rows[4].Measured, 381.53, 0.01)
	// Times must fall with core count.
	if !(tbl.Rows[6].Measured < tbl.Rows[4].Measured && tbl.Rows[4].Measured < tbl.Rows[2].Measured) {
		t.Fatal("time must decrease with cores")
	}
}

func TestTable3RowsTrackPaper(t *testing.T) {
	tbl := Table3()
	for _, r := range tbl.Rows {
		if r.Paper == 0 {
			continue
		}
		if math.Abs(r.Measured-r.Paper)/r.Paper > 0.05 {
			t.Fatalf("%s: model %v vs paper %v", r.Label, r.Measured, r.Paper)
		}
	}
}

func TestTable5RowsTrackPaper(t *testing.T) {
	tbl := Table5()
	for _, r := range tbl.Rows {
		if r.Paper == 0 {
			continue
		}
		if math.Abs(r.Measured-r.Paper)/r.Paper > 0.03 {
			t.Fatalf("%s: model %v vs paper %v", r.Label, r.Measured, r.Paper)
		}
	}
}

func TestExtendedWeakScaling(t *testing.T) {
	tbl := ExtendedWeakScaling()
	// 92.3% claim: we accept the 90-98% band (shape: high efficiency at
	// 122,880 cores).
	eff := tbl.Rows[0].Measured
	if eff < 90 || eff > 99 {
		t.Fatalf("extended efficiency %v%%", eff)
	}
	// XT5 P=12 run: within 15% of the ~610 s claim.
	within(t, "XT5 P12", tbl.Rows[1].Measured, 610, 0.15)
}

func TestTableStringRendering(t *testing.T) {
	s := Table3().String()
	if len(s) == 0 || s[0] != 'T' {
		t.Fatalf("bad rendering: %q", s[:20])
	}
}

func TestModelPanics(t *testing.T) {
	m := BGP()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("np=0", func() { m.Continuum.Time(0, 100, 100, 10) })
	mustPanic("cores=0", func() { m.Continuum.Time(1, 100, 0, 10) })
	mustPanic("dpd cores", func() { m.DPD.Time(1e6, 0, 10) })
}
