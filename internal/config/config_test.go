package config

import (
	"strings"
	"testing"
)

const validJSON = `{
  "patches": [
    {"name": "feed", "origin": [0,0,0], "elements": [3,1,2], "order": 4,
     "size": [1.5,1,1], "periodic": [false,true,false],
     "nu": 0.5, "dt": 0.01, "force": [1,0,0], "initial": "poiseuille",
     "timeOrder": 2},
    {"name": "distal", "origin": [1,0,0], "elements": [3,1,2], "order": 4,
     "size": [1.5,1,1], "periodic": [false,true,false],
     "nu": 0.5, "dt": 0.01, "force": [1,0,0], "initial": "poiseuille"}
  ],
  "couplings": [
    {"donor": "feed", "receiver": "distal", "face": "x0"},
    {"donor": "distal", "receiver": "feed", "face": "x1"}
  ],
  "regions": [
    {"name": "insert", "origin": [1.6,0.4,0.05], "box": [8,8,8],
     "particles": 600, "rho": 3, "kbt": 0.2, "dt": 0.005, "seed": 7,
     "walls": "zslab",
     "nsUnits": {"l": 1e-3, "nu": 0.5}, "dpdUnits": {"l": 2e-5, "nu": 0.2},
     "boost": 120,
     "platelets": {"count": 10, "delay": 0.1,
       "sites": [[4,4,0.3]],
       "seedBox": [[0.5,0.5,0.3],[7.5,7.5,2]]}}
  ],
  "exchange": {"nsSteps": 5, "dpdPerNs": 10}
}`

func TestLoadAndBuildValidConfig(t *testing.T) {
	c, err := Load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Meta.Patches) != 2 || len(b.Meta.Couplings) != 2 || len(b.Meta.Atomistic) != 1 {
		t.Fatalf("built %d patches, %d couplings, %d regions",
			len(b.Meta.Patches), len(b.Meta.Couplings), len(b.Meta.Atomistic))
	}
	if b.Meta.NSStepsPerExchange != 5 || b.Meta.DPDStepsPerNS != 10 {
		t.Fatalf("exchange schedule %d/%d", b.Meta.NSStepsPerExchange, b.Meta.DPDStepsPerNS)
	}
	if b.Patches["feed"].Solver.Order != 2 {
		t.Fatalf("time order = %d", b.Patches["feed"].Solver.Order)
	}
	if b.Platelets["insert"] == nil {
		t.Fatal("platelet model missing")
	}
	// The built simulation must actually run.
	if err := b.Meta.Advance(1); err != nil {
		t.Fatal(err)
	}
	if b.Patches["feed"].Solver.Steps != 5 {
		t.Fatalf("steps = %d", b.Patches["feed"].Solver.Steps)
	}
	if b.Regions["insert"].Sys.Step != 50 {
		t.Fatalf("dpd steps = %d", b.Regions["insert"].Sys.Step)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"patchez": []}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func mustBuildErr(t *testing.T, mutate func(*Config)) {
	t.Helper()
	c, err := Load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	mutate(c)
	if _, err := c.Build(); err == nil {
		t.Fatal("expected build error")
	}
}

func TestBuildValidation(t *testing.T) {
	mustBuildErr(t, func(c *Config) { c.Patches = nil })
	mustBuildErr(t, func(c *Config) { c.Patches[0].Name = "" })
	mustBuildErr(t, func(c *Config) { c.Patches[1].Name = "feed" })
	mustBuildErr(t, func(c *Config) { c.Patches[0].Order = 1 })
	mustBuildErr(t, func(c *Config) { c.Patches[0].Initial = "vortex" })
	mustBuildErr(t, func(c *Config) { c.Couplings[0].Donor = "ghost" })
	mustBuildErr(t, func(c *Config) { c.Couplings[0].Face = "q9" })
	mustBuildErr(t, func(c *Config) { c.Regions[0].Walls = "dome" })
	mustBuildErr(t, func(c *Config) { c.Regions[0].Platelets.Sites = nil })
	mustBuildErr(t, func(c *Config) { c.Regions[0].NSUnits.L = 0 })
	mustBuildErr(t, func(c *Config) { c.Outlets = []Outlet{{Patch: "ghost", Face: "x1"}} })
	mustBuildErr(t, func(c *Config) { c.Outlets = []Outlet{{Patch: "distal", Face: "q9"}} })
	mustBuildErr(t, func(c *Config) { c.Outlets = []Outlet{{Patch: "distal", Face: "x1"}, {Patch: "distal", Face: "x1"}} })
}

// TestOutletsBlock: an outlet becomes a registered metasolver outlet whose
// network Built also lists under the outlet's name, and Advance steps it.
func TestOutletsBlock(t *testing.T) {
	c, err := Load(strings.NewReader(strings.Replace(validJSON,
		`"exchange":`, `"outlets": [{"patch": "distal", "face": "x1"}], "exchange":`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Meta.Outlets) != 1 || b.Meta.Outlets[0].Patch != b.Patches["distal"] {
		t.Fatalf("outlets: %+v", b.Meta.Outlets)
	}
	tree := b.Networks["distal:x1"]
	if tree == nil || tree != b.Meta.Outlets[0].Network {
		t.Fatalf("networks: %v", b.Networks)
	}
	if err := b.Meta.Advance(1); err != nil {
		t.Fatal(err)
	}
	if tree.Time != b.Patches["distal"].Solver.Time || tree.Steps == 0 {
		t.Fatalf("after one period the tree is at t=%v (%d steps), its patch at t=%v",
			tree.Time, tree.Steps, b.Patches["distal"].Solver.Time)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c, err := Load(strings.NewReader(`{
	  "patches": [{"name":"p","origin":[0,0,0],"elements":[1,1,1],"order":2,
	    "size":[1,1,1],"periodic":[true,true,true],"nu":0.1,"dt":0.01}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.NSStepsPerExchange != 10 || b.Meta.DPDStepsPerNS != 20 {
		t.Fatalf("default schedule %d/%d", b.Meta.NSStepsPerExchange, b.Meta.DPDStepsPerNS)
	}
	if b.Patches["p"].Solver.Order != 1 {
		t.Fatalf("default time order %d", b.Patches["p"].Solver.Order)
	}
}

func TestTransportValidate(t *testing.T) {
	cases := []struct {
		name string
		tr   *Transport
		ok   bool
	}{
		{"nil is inproc", nil, true},
		{"empty kind is inproc", &Transport{}, true},
		{"explicit inproc", &Transport{Kind: "inproc"}, true},
		{"tcp two ranks", &Transport{Kind: "tcp", Rank: 1, Peers: []string{"a:1", "b:2"}}, true},
		{"tcp no peers", &Transport{Kind: "tcp"}, false},
		{"tcp rank outside peers", &Transport{Kind: "tcp", Rank: 2, Peers: []string{"a:1", "b:2"}}, false},
		{"tcp negative rank", &Transport{Kind: "tcp", Rank: -1, Peers: []string{"a:1"}}, false},
		{"unknown kind", &Transport{Kind: "carrier-pigeon"}, false},
	}
	for _, tc := range cases {
		if err := tc.tr.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestLoadTransportBlock(t *testing.T) {
	json := `{
	  "patches": [{"name": "p", "elements": [2,1,1], "order": 3, "size": [1,1,1],
	    "periodic": [false,true,false], "nu": 0.5, "dt": 0.01}],
	  "transport": {"kind": "tcp", "rank": 1,
	    "peers": ["127.0.0.1:7001", "127.0.0.1:7002"], "rendezvousSec": 10}
	}`
	c, err := Load(strings.NewReader(json))
	if err != nil {
		t.Fatal(err)
	}
	tr := c.Transport
	if tr == nil || tr.Kind != "tcp" || tr.Rank != 1 || len(tr.Peers) != 2 || tr.RendezvousSec != 10 {
		t.Fatalf("transport block %+v", tr)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelKnobWiring(t *testing.T) {
	withParallel := strings.Replace(validJSON,
		`"timeOrder": 2`, `"timeOrder": 2, "parallel": 3`, 1)
	withParallel = strings.Replace(withParallel,
		`"walls": "zslab",`, `"walls": "zslab", "parallel": 2,`, 1)
	c, err := Load(strings.NewReader(withParallel))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Patches["feed"].Solver.G.Parallel; got != 3 {
		t.Fatalf("feed grid Parallel = %d, want 3", got)
	}
	if got := b.Patches["distal"].Solver.G.Parallel; got != 0 {
		t.Fatalf("distal grid Parallel = %d, want 0 (unset)", got)
	}
	if got := b.Regions["insert"].Sys.Parallel; got != 2 {
		t.Fatalf("region Parallel = %d, want 2", got)
	}

	// The metasolver-level override reaches every solver; 0 is a no-op.
	b.Meta.SetParallelism(0)
	if b.Patches["feed"].Solver.G.Parallel != 3 || b.Regions["insert"].Sys.Parallel != 2 {
		t.Fatal("SetParallelism(0) must leave per-solver settings untouched")
	}
	b.Meta.SetParallelism(5)
	if b.Patches["distal"].Solver.G.Parallel != 5 || b.Regions["insert"].Sys.Parallel != 5 {
		t.Fatal("SetParallelism(5) must reach every grid and system")
	}
}
