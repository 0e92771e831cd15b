package main

// Passes: one fresh run of a workload from its config bytes, either through
// the workload's own front door (frontPass — what end-to-end metrics come
// from) or one public layer at a time on this goroutine (layeredPass — what
// per-layer busy times come from).

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// pass is what one fresh run measured.
type pass struct {
	ID      string // workload/leg/pass
	Periods int    // exchange periods driven, first included

	Setup        sample  // config bytes in -> first period returned
	BuildS       float64 // config.Load + Build share of it
	FirstPeriodS float64 // the first period alone (layered pass only)

	Steady    []sample // per steady period (first and faulted excluded)
	FaultedS  float64  // wall of the period that hit the injected fault
	Recovered bool     // the injected fault fired and the run went on

	HeapMB                 float64
	Mallocs, AllocBytes    float64  // per steady period
	Digest                 []uint64 // per rank, at digestExchange
	MaxDivergence, Overlap float64  // at digestExchange
	Regions                []regionCheck
	Counters               counters
	DPDSteps               int

	RankPeriod, RankSkew []float64 // world: per-rank period time, arrival skew
	Wire                 wireStats // world: rank 0 TCP traffic over WirePeriods steady periods
	WirePeriods          int

	Layers map[string][]float64 // layered pass: busy seconds per steady period

	Err      error    // drive or set-up failure
	Failures []string // failed correctness checks
}

// digestExchange is the exchange whose end state the pass hashes: digestAt,
// or the last one of a shorter pass.
func (p *pass) digestExchange() int {
	if p.Periods < digestAt {
		return p.Periods
	}
	return digestAt
}

// failed reports whether every period of the pass counts as failed.
func (p *pass) failed() bool { return p.Err != nil || len(p.Failures) > 0 }

// Bands of the correctness checks, pinned from the seed runs (ten seeds,
// passes of 3 to 17 periods). They hold from exchange digestAt on: the random
// fill starts at 2.3 kBT and has cooled to within 16 % by then (within 5 %
// from exchange 5), while the population dips 5 % below the steady value
// before it recovers. The interface RMS is a thermal-noise-sized number
// (0.1 to 0.5 there); the divergence cap only catches a blow-up — the value
// itself is reported as core.max_divergence.
const (
	tolTemperature  = 0.20
	tolDensity      = 0.08
	steadyDensity   = steadyParticles / 1000.0 // the 10³ box
	capInterfaceRMS = 2.5
	capDivergence   = 1.0
)

// check runs the per-pass correctness checks on a finished sim.
func (p *pass) check(w workload, s *sim) {
	p.Regions = s.regionChecks()
	// A fresh random fill is still cooling before digestAt: nothing to hold
	// a shorter pass to yet.
	for _, r := range p.Regions {
		if p.Periods < digestAt {
			break
		}
		if math.Abs(r.Temperature-r.KBT) > tolTemperature*r.KBT {
			p.Failures = append(p.Failures, fmt.Sprintf("region %s temperature %.4g not within %.0f%% of kBT %.4g", r.Name, r.Temperature, 100*tolTemperature, r.KBT))
		}
		if math.Abs(r.Density-steadyDensity) > tolDensity*steadyDensity {
			p.Failures = append(p.Failures, fmt.Sprintf("region %s density %.4g not within %.0f%% of the steady %.4g", r.Name, r.Density, 100*tolDensity, steadyDensity))
		}
		if !(r.InterfaceRMS <= capInterfaceRMS) {
			p.Failures = append(p.Failures, fmt.Sprintf("region %s interface RMS %.4g above cap %.4g", r.Name, r.InterfaceRMS, capInterfaceRMS))
		}
	}
	if !(p.MaxDivergence <= capDivergence) {
		p.Failures = append(p.Failures, fmt.Sprintf("max divergence %.4g above cap %.4g", p.MaxDivergence, capDivergence))
	}
	if s.auditCritical() {
		p.Failures = append(p.Failures, "audit ledger ended critical")
	}
	if f := w.Post.FaultAt; f > 0 && p.Periods >= f && p.Layers == nil && !p.Recovered {
		p.Failures = append(p.Failures, "injected fault did not fire")
	}
}

// storeDirs makes one temporary checkpoint store per rank under a fresh
// temp directory; cleanup removes them all.
func storeDirs(w workload, tmpRoot string) (dirs []string, cleanup func(), err error) {
	if !w.Post.Checkpoint {
		return make([]string, w.Post.Ranks), func() {}, nil
	}
	root, err := os.MkdirTemp(tmpRoot, "bench-ck-")
	if err != nil {
		return nil, nil, err
	}
	for r := 0; r < w.Post.Ranks; r++ {
		dirs = append(dirs, filepath.Join(root, fmt.Sprintf("rank%d", r)))
	}
	return dirs, func() { os.RemoveAll(root) }, nil
}

// legOptions are the harness's choices for one pass.
type legOptions struct {
	TmpRoot  string  // parent of temporary checkpoint stores ("" = os default)
	NoPlanes bool    // planes-off leg
	Trace    *tracer // nil = untraced
	ID       string  // workload/leg/pass prefix of span ids
}

// frontPass runs a workload through its own front door for the given number
// of periods.
func frontPass(w workload, periods int, opt legOptions) (p *pass) {
	p = &pass{ID: opt.ID, Periods: periods}
	dirs, cleanup, err := storeDirs(w, opt.TmpRoot)
	if err != nil {
		p.Err = err
		return p
	}
	defer cleanup()

	ranks := w.Post.Ranks
	t0 := now()
	var sims []*sim
	var wd *world
	if w.Post.Driver == driverDistributed {
		if wd, err = newWorld(w, dirs); err == nil {
			sims = wd.sims
		}
	} else {
		var s *sim
		if s, err = newSim(w, simOptions{StoreDir: dirs[0], NoPlanes: opt.NoPlanes}); err == nil {
			sims = []*sim{s}
		}
	}
	if err != nil {
		p.Err = err
		return p
	}
	defer func() {
		for _, s := range sims {
			s.close()
		}
	}()
	p.BuildS = sims[0].buildS
	p.DPDSteps = sims[0].dpdStepsPerPeriod()

	var mu sync.Mutex
	arrived := make([]int, periods+1)
	bounds := make([]stamp, periods+1) // when the last rank finished each exchange
	rankAt := make([][]time.Time, ranks)
	for r := range rankAt {
		rankAt[r] = make([]time.Time, periods+1)
	}
	p.Digest = make([]uint64, ranks)
	var mallocs0, bytes0 uint64
	var wire0 wireStats
	faultFired := false

	hook := func(rank, e int) error {
		at := time.Now()
		if e == w.Post.FaultAt && !faultFired {
			faultFired = true // single-rank driver: no lock needed
			return errors.New("bench: injected hook fault")
		}
		if e == p.digestExchange() {
			p.Digest[rank] = sims[rank].digest()
			if rank == 0 {
				p.MaxDivergence = sims[0].maxDivergence()
				p.Overlap = sims[0].overlapRMS()
			}
		}
		mu.Lock()
		defer mu.Unlock()
		rankAt[rank][e] = at
		arrived[e]++
		if arrived[e] < ranks {
			return nil
		}
		bounds[e] = now()
		if e == 1 {
			p.Setup = bounds[1].since(t0)
			mallocs0, bytes0 = allocCounters()
			if wd != nil {
				wire0 = wd.wire(0)
			}
		}
		if e == periods && wd != nil {
			// Read before the world closes and the FIN frames go out.
			w1 := wd.wire(0)
			p.Wire = wireStats{w1.Frames - wire0.Frames, w1.Bytes - wire0.Bytes}
			p.WirePeriods = periods - 1
		}
		return nil
	}

	if wd != nil {
		p.Err = wd.drive(periods, hook)
	} else {
		p.Err = sims[0].drive(periods, func(e int) error { return hook(0, e) })
	}
	if p.Err != nil {
		return p
	}

	mallocs1, bytes1 := allocCounters()
	p.HeapMB = liveHeapMB()
	steady := float64(periods - 1)
	if steady > 0 {
		p.Mallocs = float64(mallocs1-mallocs0) / steady
		p.AllocBytes = float64(bytes1-bytes0) / steady
	}
	p.Recovered = faultFired
	for e := 2; e <= periods; e++ {
		iv := bounds[e].since(bounds[e-1])
		name := "period"
		if e == w.Post.FaultAt {
			p.FaultedS = iv.Wall
			name = "period.faulted"
		} else {
			p.Steady = append(p.Steady, iv)
			if ranks > 1 {
				firstIn, lastIn := rankAt[0][e], rankAt[0][e]
				for r := range rankAt {
					p.RankPeriod = append(p.RankPeriod, rankAt[r][e].Sub(rankAt[r][e-1]).Seconds())
					if rankAt[r][e].Before(firstIn) {
						firstIn = rankAt[r][e]
					}
					if rankAt[r][e].After(lastIn) {
						lastIn = rankAt[r][e]
					}
				}
				p.RankSkew = append(p.RankSkew, lastIn.Sub(firstIn).Seconds())
			}
		}
		opt.Trace.add(name, fmt.Sprintf("%s/%d", opt.ID, e), bounds[e-1].wall, bounds[e].wall, -1)
	}
	opt.Trace.add("setup", opt.ID+"/1", t0.wall, bounds[1].wall, -1)

	p.Counters = sims[0].counters()
	p.check(w, sims[0])
	for r := 1; r < ranks; r++ {
		if p.Digest[r] != p.Digest[0] {
			p.Failures = append(p.Failures, fmt.Sprintf("rank %d digest %016x differs from rank 0 %016x", r, p.Digest[r], p.Digest[0]))
		}
	}
	runtime.KeepAlive(sims)
	return p
}

// layeredPass runs one replica of the workload one public layer at a time on
// this goroutine, with a span around every layer call, then the probes.
func layeredPass(w workload, periods int, opt legOptions, probes metrics) (p *pass) {
	p = &pass{ID: opt.ID, Periods: periods, Layers: map[string][]float64{}}
	solo := w
	solo.Post.Ranks = 1
	dirs, cleanup, err := storeDirs(solo, opt.TmpRoot)
	if err != nil {
		p.Err = err
		return p
	}
	defer cleanup()

	t0 := time.Now()
	s, err := newSim(w, simOptions{StoreDir: dirs[0], NoPlanes: true, CGGauges: true})
	if err != nil {
		p.Err = err
		return p
	}
	p.BuildS = s.buildS
	p.DPDSteps = s.dpdStepsPerPeriod()
	if p.Err = s.baseline(); p.Err != nil {
		return p
	}
	layers := s.layers()
	faulted := w.Post.FaultAt == 0
	for e := 1; e <= periods; e++ {
		// The front door's hook fails once at exchange FaultAt, after the
		// period's work and before its checkpoint; the recovery loop then
		// reloads the previous bundle and runs the period again. Do the
		// same here, so the leg goes through the same states.
		fault := e == w.Post.FaultAt && !faulted
		id := fmt.Sprintf("%s/%d", opt.ID, e)
		start := time.Now()
		var children []int
		busy := map[string]float64{}
		timeLayer := func(name string, run func() error) error {
			l0 := time.Now()
			if err := run(); err != nil {
				return fmt.Errorf("%s at period %d: %w", name, e, err)
			}
			l1 := time.Now()
			children = append(children, opt.Trace.add(name, id, l0, l1, -1))
			busy[name] = l1.Sub(l0).Seconds()
			return nil
		}
		for _, l := range layers {
			if fault && l.Name == "checkpoint.write" {
				l = layer{"checkpoint.resume", s.resume}
			}
			if p.Err = timeLayer(l.Name, l.Run); p.Err != nil {
				return p
			}
		}
		end := time.Now()
		name := "period"
		if fault {
			name = "period.faulted"
		}
		parent := opt.Trace.add(name, id, start, end, -1)
		for _, c := range children {
			opt.Trace.setParent(c, parent)
		}
		switch {
		case fault:
			faulted = true
			e-- // run the period again
			continue
		case e == 1:
			p.Setup = sample{Wall: end.Sub(t0).Seconds()}
			p.FirstPeriodS = end.Sub(start).Seconds()
		default:
			p.Steady = append(p.Steady, sample{Wall: end.Sub(start).Seconds()})
			// Patches and regions also fold into their layer:
			// "nektar3d.run:feed" counts under "nektar3d.run" too.
			folded := map[string]float64{}
			for name, sec := range busy {
				if key, _, cut := strings.Cut(name, ":"); cut {
					folded[key] += sec
				}
			}
			for _, m := range []map[string]float64{busy, folded} {
				for name, sec := range m {
					p.Layers[name] = append(p.Layers[name], sec)
				}
			}
		}
		if e == p.digestExchange() {
			p.Digest = []uint64{s.digest()}
			p.MaxDivergence = s.maxDivergence()
			p.Overlap = s.overlapRMS()
		}
	}
	p.Counters = s.counters()
	p.check(w, s)

	pr, he := s.cgIters()
	probes.set("nektar3d.pressure_iters", pr, "count")
	probes.set("nektar3d.helmholtz_iters", he, "count")
	if err := s.kernelProbes(probes); err != nil {
		p.Err = err
		return p
	}
	if p.DPDSteps > 0 {
		s.forcesProbe(probes)
	}
	if s.ck != nil {
		if err := s.checkpointProbes(probes); err != nil {
			p.Err = err
			return p
		}
	}
	if w.Post.Driver == driverDistributed {
		if err := commProbes(s.gammaIPayload(), probes); err != nil {
			p.Err = err
		}
	}
	return p
}
