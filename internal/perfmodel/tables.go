package perfmodel

import (
	"fmt"
	"strings"

	"nektarg/internal/mesh"
	"nektarg/internal/partition"
)

// Row is one line of a reproduced table: a label, the paper's value (0 when
// the paper leaves the cell blank) and our model/measurement.
type Row struct {
	Label    string
	Paper    float64
	Measured float64
}

// Table is one reproduced table or figure series.
type Table struct {
	Title string
	Unit  string
	Rows  []Row
}

// String renders the table for terminal output.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-44s %14s %14s %9s\n", "case", "paper ["+t.Unit+"]", "model ["+t.Unit+"]", "ratio")
	for _, r := range t.Rows {
		ratio := "-"
		if r.Paper != 0 {
			ratio = fmt.Sprintf("%.3f", r.Measured/r.Paper)
		}
		paper := "-"
		if r.Paper != 0 {
			paper = fmt.Sprintf("%.2f", r.Paper)
		}
		fmt.Fprintf(&b, "%-44s %14s %14.2f %9s\n", r.Label, paper, r.Measured, ratio)
	}
	return b.String()
}

// Table2 reproduces the partitioning-strategy study: CPU time for 1000 steps
// of a turbulent carotid-artery flow with (a) face-only partitioning and (b)
// full vertex/edge/face adjacency with DOF-scaled weights. The partition
// quality comes from running our partitioner on a carotid-like tetrahedral
// mesh; the time model t = W/c + kappa * Vmax(parts) is calibrated on
// strategy (a)'s 512- and 2048-core cells, every other cell is predicted.
func Table2() *Table {
	m := mesh.CarotidTets(24, 6, 6)
	const order = 6
	gFace := m.AdjacencyGraph(mesh.FaceOnly, order)
	gFull := m.AdjacencyGraph(mesh.FullAdjacency, order)

	cores := []int{512, 1024, 2048, 4096}
	// Scaled-down proxy: partition counts proportional to core counts.
	parts := []int{16, 32, 64, 128}

	// Evaluate both strategies against the *full* graph — the solver's real
	// communication pattern includes vertex/edge neighbours either way.
	vFace := make([]float64, len(parts))
	vFull := make([]float64, len(parts))
	for i, np := range parts {
		pa := partition.Partition(gFace, np)
		pb := partition.Partition(gFull, np)
		vFace[i] = partition.Evaluate(gFull, pa, np).MaxPartVolume
		vFull[i] = partition.Evaluate(gFull, pb, np).MaxPartVolume
	}

	// Calibrate W and kappa from strategy (a) at 512 and 2048 cores.
	paperA := []float64{1181.06, 654.94, 381.53, 238.05}
	paperB := []float64{1171.82, 638.00, 361.65, 219.87}
	// t_i = W/c_i + kappa * v_i: scaling the first equation by c0/c2 and
	// subtracting eliminates W.
	c0, c2 := float64(cores[0]), float64(cores[2])
	kappa := (paperA[0]*c0/c2 - paperA[2]) / (vFace[0]*c0/c2 - vFace[2])
	w := (paperA[0] - float64(kappa*vFace[0])) * c0

	tbl := &Table{Title: "Table 2: partitioning strategies, carotid flow, 1000 steps (BG/P)", Unit: "s"}
	for i, c := range cores {
		ta := w/float64(c) + float64(kappa*vFace[i])
		tb := w/float64(c) + float64(kappa*vFull[i])
		tbl.Rows = append(tbl.Rows,
			Row{Label: fmt.Sprintf("a) face-only partitioning, %d cores", c), Paper: paperA[i], Measured: ta},
			Row{Label: fmt.Sprintf("b) full adjacency partitioning, %d cores", c), Paper: paperB[i], Measured: tb},
		)
	}
	return tbl
}

// Table3 reproduces the weak-scaling study: Np = 3, 8, 16 patches of 17,474
// order-10 elements on 2048 cores per patch, BG/P and Cray XT5.
func Table3() *Table {
	tbl := &Table{Title: "Table 3: weak scaling, Np patches x 2048 cores, P=10", Unit: "s/1000 steps"}
	paper := map[string][]float64{
		"BlueGene/P": {650.67, 685.23, 703.4},
		"Cray XT5":   {462.3, 477.2, 505.1},
	}
	for _, ma := range []*Machine{BGP(), XT5()} {
		for i, np := range []int{3, 8, 16} {
			t := ma.Continuum.Time(np, mesh.PaperPatchElements, 2048, 10)
			dom := mesh.ChainDomain(np, mesh.PaperPatchElements, mesh.PaperOverlapElements)
			tbl.Rows = append(tbl.Rows, Row{
				Label:    fmt.Sprintf("%s Np=%d (%.3fB DOF, %d cores)", ma.Name, np, dom.DOF(10, 4)/1e9, np*2048),
				Paper:    paper[ma.Name][i],
				Measured: t,
			})
		}
	}
	return tbl
}

// Table4 reproduces the BG/P strong-scaling study: the same domains with
// 1024 vs 2048 cores per patch.
func Table4() *Table {
	tbl := &Table{Title: "Table 4: strong scaling (BG/P), cores per patch 1024 -> 2048", Unit: "s/1000 steps"}
	paper := [][2]float64{{996.98, 650.67}, {1025.33, 685.23}, {1048.75, 703.4}}
	ma := BGP()
	for i, np := range []int{3, 8, 16} {
		t1 := ma.Continuum.Time(np, mesh.PaperPatchElements, 1024, 10)
		t2 := ma.Continuum.Time(np, mesh.PaperPatchElements, 2048, 10)
		tbl.Rows = append(tbl.Rows,
			Row{Label: fmt.Sprintf("Np=%d, %d cores", np, np*1024), Paper: paper[i][0], Measured: t1},
			Row{Label: fmt.Sprintf("Np=%d, %d cores (eff %.1f%%)", np, np*2048,
				100*ma.Continuum.StrongEfficiency(np, mesh.PaperPatchElements, 1024, 10)),
				Paper: paper[i][1], Measured: t2},
		)
	}
	return tbl
}

// Table5 reproduces the coupled-simulation strong scaling: 823M DPD
// particles, 4000 DPD steps (200 continuum steps), DPD cores scaled while
// the continuum side keeps 4,096 (BG/P) / 4,116 (XT5) cores.
func Table5() *Table {
	tbl := &Table{Title: "Table 5: coupled continuum-DPD strong scaling, 4000 DPD steps, 823M particles", Unit: "s"}
	bgp := BGP()
	for i, c := range []int{28672, 61440, 126976} {
		paper := []float64{3205.58, 1399.12, 665.79}[i]
		tbl.Rows = append(tbl.Rows, Row{
			Label:    fmt.Sprintf("BlueGene/P, %d DPD cores", c),
			Paper:    paper,
			Measured: bgp.CoupledTime(PaperDPDParticles, c, 4000, 200),
		})
	}
	xt5 := XT5()
	for i, c := range []int{17280, 34560, 93312} {
		paper := []float64{2193.66, 762.99, 0}[i] // the 93312 cell is blank in the paper
		tbl.Rows = append(tbl.Rows, Row{
			Label:    fmt.Sprintf("Cray XT5, %d DPD cores", c),
			Paper:    paper,
			Measured: xt5.CoupledTime(PaperDPDParticles, c, 4000, 200),
		})
	}
	return tbl
}

// ExtendedWeakScaling reproduces the §4.1 text claims: 92.3% efficiency from
// 16 to 40 patches at 3072 cores per patch on BG/P (49,152 -> 122,880
// cores), and the XT5 run with 40 patches, 96,000 cores, P=12 (8.21B DOF) at
// about 610 seconds per 1000 steps.
func ExtendedWeakScaling() *Table {
	tbl := &Table{Title: "§4.1 extended runs", Unit: "s/1000 steps or %"}
	bgp := BGP()
	eff := 100 * bgp.Continuum.WeakEfficiency(16, 40, mesh.PaperPatchElements, 3072, 6)
	tbl.Rows = append(tbl.Rows, Row{
		Label:    "BG/P weak-scaling efficiency 49,152 -> 122,880 cores [%]",
		Paper:    92.3,
		Measured: eff,
	})
	xt5 := XT5()
	t := xt5.Continuum.Time(40, mesh.PaperPatchElements, 96000/40, 12)
	tbl.Rows = append(tbl.Rows, Row{
		Label:    "XT5 40 patches, 96,000 cores, P=12 (8.21B DOF)",
		Paper:    610,
		Measured: t,
	})
	return tbl
}
