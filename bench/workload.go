package main

// The workload generator: a seed becomes four config JSON documents plus the
// post-wiring the config schema cannot express (pulsatile phase, 1D tree,
// driver, planes, fault index). The program sees only these generated
// inputs; same seed, byte-identical inputs. Problem sizes are fixed — the
// seed moves the DPD random stream, the platelet seeding and the pulsatile
// phase, never the amount of work.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Driver kinds: the program's three front doors for advancing a coupled run.
const (
	driverAdvance     = "advance"     // core.Metasolver.Advance in a plain loop
	driverRecovery    = "recovery"    // core.RunWithRecovery
	driverDistributed = "distributed" // core.RunDistributed, one goroutine per rank
)

// treeSpec attaches a 1D fractal peripheral tree to one patch outlet, with
// the values the CLI's -with1d flag uses.
type treeSpec struct {
	Patch           string  `json:"patch"`
	Face            string  `json:"face"`
	Generations     int     `json:"generations"`
	NodesPerSegment int     `json:"nodesPerSegment"`
	AreaScale       float64 `json:"areaScale"`
	Dt1D            float64 `json:"dt1D"`
}

// postSpec is everything a workload does to the built simulation after
// config.Build, and how it is driven.
type postSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Driver   string `json:"driver"`
	Ranks    int    `json:"ranks"`
	// Pulsatile patches get Force = 1 + 0.8 sin(2πt/0.4 + Phase) so CG
	// iteration counts stay stationary instead of decaying as the
	// Poiseuille start relaxes.
	Pulsatile []string  `json:"pulsatile"`
	Phase     float64   `json:"phase"`
	Tree      *treeSpec `json:"tree,omitempty"`
	// Planes turns on every observer plane: telemetry, monitor watchdogs,
	// audit, history, in-memory insitu.
	Planes bool `json:"planes"`
	// Checkpoint writes a bundle every period (and a baseline before the
	// first).
	Checkpoint bool `json:"checkpoint"`
	// FaultAt makes the per-period hook fail once at this exchange, forcing
	// a reload of the previous checkpoint (0 = no fault).
	FaultAt int `json:"faultAt"`
	// Parallel pins the per-solver worker count (0 = program defaults).
	Parallel int `json:"parallel"`
}

type workload struct {
	Name   string
	Why    string
	Config []byte
	Post   postSpec
}

// digestAt is the exchange whose end state every pass of a workload hashes:
// late enough that the injected fault (faultAt) has been recovered from,
// early enough that every pass reaches it.
const (
	faultAt  = 2
	digestAt = 3
)

var workloadNames = []string{"continuum", "atomistic", "full", "world"}

const plateletsJSON = `"platelets": {"count": 40, "delay": 0.1,
       "sites": [[3,5,0.3],[4,5,0.3],[5,5,0.3],[6,5,0.3],[7,5,0.3]],
       "seedBox": [[0.5,0.5,0.3],[9.5,9.5,2.5]]}`

func patchJSON(name string, originX float64, elements [3]int, order, timeOrder int) string {
	return fmt.Sprintf(`{"name": %q, "origin": [%g,0,0], "elements": [%d,%d,%d], "order": %d,
     "size": [1.5,1,1], "periodic": [false,true,false],
     "nu": 0.5, "dt": 0.01, "force": [1,0,0], "initial": "poiseuille", "timeOrder": %d}`,
		name, originX, elements[0], elements[1], elements[2], order, timeOrder)
}

// steadyParticles is the population the open 10³ box settles at under its
// two ρ = 3 flux faces and the boosted inflow (number density 3.55, measured
// over 60 periods on the seed run). Every DPD workload starts there: started
// at ρ·V = 3000 the box fills for ~10 periods and the period time climbs 40 %
// with it, so no period count would give a stationary sample.
const steadyParticles = 3550

// regionJSON is the one DPD region every atomistic workload embeds:
// coupled.json's "fundus" with platelets, at the steady population.
func regionJSON(seed uint64, parallel int) string {
	return fmt.Sprintf(`{"name": "fundus", "origin": [1.6,0.4,0.05], "box": [10,10,10],
     "particles": %d, "rho": 3, "kbt": 0.2, "dt": 0.005, "seed": %d,
     "walls": "zslab", "parallel": %d,
     "nsUnits": {"l": 1e-3, "nu": 0.5}, "dpdUnits": {"l": 2e-5, "nu": 0.2},
     "boost": 120,
     %s}`, steadyParticles, seed, parallel, plateletsJSON)
}

const (
	bothWays    = `{"donor": "feed", "receiver": "distal", "face": "x0"}, {"donor": "distal", "receiver": "feed", "face": "x1"}`
	paperRatios = `{"nsSteps": 10, "dpdPerNs": 20}`
)

func configJSON(patches []string, couplings string, regions []string) []byte {
	join := func(xs []string) string { return strings.Join(xs, ",\n    ") }
	return []byte(fmt.Sprintf(`{
  "patches": [
    %s
  ],
  "couplings": [%s],
  "regions": [
    %s
  ],
  "exchange": %s
}
`, join(patches), couplings, join(regions), paperRatios))
}

// splitmix64 derives independent per-purpose streams from the one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// generate builds the four workloads of a seed.
func generate(seed int64) []workload {
	h := splitmix64(uint64(seed))
	// The region seed drives both the DPD stream RNG and the platelet
	// seeding; 0 would select the program's default, so keep it positive.
	dpdSeed := h%(1<<31) + 1
	// The forcing period is four exchange periods, so at period ends the
	// forcing's excess over the steady value cycles through ±sin φ, ±cos φ —
	// and the projection's divergence with it. The phase is drawn from the
	// four windows around the odd multiples of π/4, where the two magnitudes
	// stay within 20 % of each other; elsewhere one of them passes near zero
	// and the audit ledger's mass.div budget (rightly) reads the rebound as
	// a critical step change, which the recovery loop cannot recover from.
	u := splitmix64(h)
	jitter := 0.2 * (float64(u>>11)/(1<<53) - 0.5)
	phase := math.Pi/4 + float64(u%4)*math.Pi/2 + jitter

	post := func(name, driver string) postSpec {
		return postSpec{Workload: name, Seed: seed, Driver: driver, Ranks: 1, Phase: phase}
	}

	continuum := post("continuum", driverAdvance)
	continuum.Pulsatile = []string{"feed", "distal"}

	atomistic := post("atomistic", driverAdvance)

	full := post("full", driverRecovery)
	full.Pulsatile = []string{"feed", "distal"}
	full.Tree = &treeSpec{Patch: "distal", Face: "x1", Generations: 3, NodesPerSegment: 21, AreaScale: 6, Dt1D: 5e-5}
	full.Planes = true
	full.Checkpoint = true
	full.FaultAt = faultAt

	world := post("world", driverDistributed)
	world.Ranks = 2
	world.Pulsatile = []string{"feed", "distal"}
	world.Checkpoint = true
	world.Parallel = 1

	return []workload{
		{
			Name: "continuum",
			Why:  "two overlapping order-6 SEM patches and nothing else: nektar3d/sem/linalg/simd own the period; dpd, nektar1d, checkpoint and mpi are bypassed",
			Config: configJSON([]string{
				patchJSON("feed", 0, [3]int{4, 2, 2}, 6, 2),
				patchJSON("distal", 1, [3]int{4, 2, 2}, 6, 2),
			}, bothWays, nil),
			Post: continuum,
		},
		{
			Name: "atomistic",
			Why:  "one steady order-3 patch feeding a 3550-particle DPD region with platelets: dpd owns the period, so SEM changes must show nothing here",
			Config: configJSON([]string{
				patchJSON("feed", 1, [3]int{3, 1, 2}, 3, 2),
			}, "", []string{regionJSON(dpdSeed, 0)}),
			Post: atomistic,
		},
		{
			Name: "full",
			Why:  "the Figure-2 run as operated: unequal patches + DPD + 1D tree under the recovery loop, checkpoint every period, all planes on, one fault per pass",
			Config: configJSON([]string{
				patchJSON("feed", 0, [3]int{2, 1, 1}, 3, 2),
				patchJSON("distal", 1, [3]int{4, 2, 2}, 6, 2),
			}, bothWays, []string{regionJSON(dpdSeed, 0)}),
			Post: full,
		},
		{
			Name: "world",
			Why:  "coupled.json's scenario as a 2-rank TCP loopback world under RunDistributed: the only workload with mpi, tcptransport and the commit barrier on the blocking path",
			Config: configJSON([]string{
				patchJSON("feed", 0, [3]int{3, 1, 2}, 4, 2),
				patchJSON("distal", 1, [3]int{3, 1, 2}, 4, 1),
			}, bothWays, []string{regionJSON(dpdSeed, 1)}),
			Post: world,
		},
	}
}

func findWorkload(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// writeInputs stores a workload's generated inputs under dir so the inputs
// of any run can be re-read.
func writeInputs(dir string, w workload) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "input-"+w.Name+".config.json"), w.Config, 0o644); err != nil {
		return err
	}
	post, err := json.MarshalIndent(w.Post, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "input-"+w.Name+".post.json"), append(post, '\n'), 0o644)
}
