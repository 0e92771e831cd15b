package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func TestHighPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return xs
	}
	cases := []struct {
		n       int
		wantPct int
		wantVal float64
		wantOK  bool
	}{
		{39, 0, 0, false},   // p75 would leave 9 beyond
		{40, 75, 30, true},  // exactly 10 beyond p75
		{99, 75, 75, true},  // p90 would leave 9 beyond
		{100, 90, 90, true}, // exactly 10 beyond p90
		{200, 95, 190, true},
		{1000, 99, 990, true},
	}
	for _, c := range cases {
		pct, val, ok := highPercentile(seq(c.n))
		if pct != c.wantPct || val != c.wantVal || ok != c.wantOK {
			t.Errorf("n=%d: got p%d=%v ok=%v, want p%d=%v ok=%v", c.n, pct, val, ok, c.wantPct, c.wantVal, c.wantOK)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := fastest([]float64{4, 1, 3}); got != 1 {
		t.Errorf("fastest of 4,1,3 = %v, want 1", got)
	}
	// Two CPUs busy for 1 s of wall, 0.5 CPU-s stolen: a fifth of what the
	// process asked for, so a fifth of the wall was the hypervisor's.
	if got := (sample{Wall: 1, CPU: 2, Stolen: 0.5}).net(); got != 0.8 {
		t.Errorf("net of {1 2 0.5} = %v, want 0.8", got)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b, other := generate(7), generate(7), generate(8)
	if len(a) != len(workloadNames) {
		t.Fatalf("generated %d workloads, want %d", len(a), len(workloadNames))
	}
	for i := range a {
		if a[i].Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, a[i].Name, workloadNames[i])
		}
		pa, _ := json.Marshal(a[i].Post)
		pb, _ := json.Marshal(b[i].Post)
		if !bytes.Equal(a[i].Config, b[i].Config) || !bytes.Equal(pa, pb) {
			t.Errorf("%s: same seed gave different inputs", a[i].Name)
		}
		po, _ := json.Marshal(other[i].Post)
		if bytes.Equal(pa, po) {
			t.Errorf("%s: seeds 7 and 8 gave the same post-wiring", a[i].Name)
		}
		if !json.Valid(a[i].Config) {
			t.Errorf("%s: config is not valid JSON:\n%s", a[i].Name, a[i].Config)
		}
	}
}

// TestBenchmarkJSON holds the harness's metric lists, bounds and workloads
// equal to the contract file at the repo root.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	ws := generate(1)
	if len(file.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(file.Workloads), len(ws))
	}
	for i, w := range file.Workloads {
		if w.Name != ws[i].Name {
			t.Errorf("workload %d: file %q, harness %q", i, w.Name, ws[i].Name)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: file has %d metrics, harness %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Bound != want[i].Bound {
				t.Errorf("%s %d: file %s [%s] within %v, harness %s [%s] within %v", kind, i,
					got[i].Name, got[i].Unit, got[i].Bound, want[i].Name, want[i].Unit, want[i].Bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
	for _, d := range file.EndToEnd {
		if d.Better != "lower" {
			t.Errorf("%s: file says %s is better, the A/A comparison assumes lower", d.Name, d.Better)
		}
	}
}

func legFor(t *testing.T) legOptions { return legOptions{TmpRoot: t.TempDir(), ID: t.Name()} }

func assertClean(t *testing.T, what string, p *pass) {
	t.Helper()
	if p.Err != nil {
		t.Fatalf("%s: %v", what, p.Err)
	}
	for _, f := range p.Failures {
		t.Errorf("%s: %s", what, f)
	}
}

// TestSmoke drives one period of every workload through its front door.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the coupled solvers")
	}
	for _, w := range generate(3) {
		p := frontPass(w, 1, legFor(t))
		assertClean(t, w.Name, p)
		if p.Setup.net() <= 0 || p.Setup.net() > p.Setup.Wall || p.HeapMB <= 0 {
			t.Errorf("%s: setup %+v, heap %v MB: want 0 < net <= wall, heap positive", w.Name, p.Setup, p.HeapMB)
		}
	}
}

// TestLayeredMatchesFrontDoor is the digest check on a 2-period run: calling
// the public layers one at a time must do the same work as the front door,
// and the same seed must end in the same state twice.
func TestLayeredMatchesFrontDoor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the coupled solvers")
	}
	w, err := findWorkload(generate(3), "atomistic")
	if err != nil {
		t.Fatal(err)
	}
	front := frontPass(w, 2, legFor(t))
	assertClean(t, "front door", front)
	tr := newTracer()
	opt := legFor(t)
	opt.Trace = tr
	probes := metrics{}
	layered := layeredPass(w, 2, opt, probes)
	assertClean(t, "layered", layered)
	if front.Digest[0] == 0 || front.Digest[0] != layered.Digest[0] {
		t.Errorf("digest: front door %016x, layered %016x", front.Digest[0], layered.Digest[0])
	}
	if len(layered.Layers["dpd.run"]) != 1 || layered.Layers["dpd.run"][0] <= 0 {
		t.Errorf("layered pass recorded dpd.run busy %v, want one positive sample", layered.Layers["dpd.run"])
	}
	if probes["dpd.forces_s"].Value <= 0 || probes["nektar3d.stiffness_apply_s"].Value <= 0 {
		t.Errorf("probes missing: %v", probes)
	}
	// Two periods × (period + core.exchange + nektar3d.run:feed + dpd.run:fundus).
	if len(tr.spans) != 8 {
		t.Errorf("trace has %d spans, want 8", len(tr.spans))
	}
	for _, s := range tr.spans {
		if s.Name != "period" && (s.Parent < 0 || tr.spans[s.Parent].Name != "period" || tr.spans[s.Parent].ID != s.ID) {
			t.Errorf("span %s (%s) has parent %d, want its period", s.Name, s.ID, s.Parent)
		}
	}
}
