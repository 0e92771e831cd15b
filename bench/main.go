// Bench is the repo's benchmark: four coupled-run workloads generated from a
// seed, driven through the program's public front doors, measured per
// exchange period (wall and CPU), with a ladder of per-layer numbers from a
// separate traced run. See README.md in this directory.
//
// Usage:
//
//	go run ./bench -seed N                 all four workloads, passes interleaved
//	go run ./bench -seed N -trace 1        ... plus the traced legs (per-layer metrics)
//	go run ./bench -aa                     two sets of the same code, compared against the bounds
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                       one workload; last stdout line is the result JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

const (
	// passes is P: fresh passes of the same seed per workload and set.
	passes = 3
	// calibrationPeriods is the length of a workload's first pass: its
	// timings size the passes after it, so the run fits its budget on a host
	// of any speed.
	calibrationPeriods = digestAt + 1
	// fitShare is the part of the remaining budget the sized passes plan to
	// use; the rest absorbs a host that slows down after they were sized.
	fitShare = 0.9
	// Setup-only repeats a set adds to the P passes' set-ups: a full set, and
	// a single-workload run that has 30 s to fit everything in.
	setupRepeats       = 5
	setupRepeatsSingle = 2
	// layeredCost is the layered leg's period over the front door's, as
	// budgeted: one goroutine does what the front door spreads over two CPUs.
	// probeSeconds is what the probes after it are budgeted.
	layeredCost  = 2
	probeSeconds = 4
)

type options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Verbose bool
	OutDir  string
}

// hostFacts go on every output.
type hostFacts struct {
	Commit     string
	GoVersion  string
	NumCPU     int
	GOMAXPROCS int
	Seed       int64
	Passes     int
	Steal      float64
	StealKnown bool
	Noisy      bool
}

func (h hostFacts) String() string {
	steal := "unmeasured"
	if h.StealKnown {
		steal = fmt.Sprintf("%.3f", h.Steal)
	}
	noisy := ""
	if h.Noisy {
		noisy = fmt.Sprintf(" NOISY (steal above %.2f)", noisySteal)
	}
	return fmt.Sprintf("host: commit=%s go=%s nproc=%d GOMAXPROCS=%d seed=%d passes=%d steal=%s%s",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Seed, h.Passes, steal, noisy)
}

func facts(seed int64, start stamp) hostFacts {
	h := hostFacts{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Passes: passes,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	h.Steal, h.StealKnown = now().stealSince(start)
	h.Noisy = h.StealKnown && h.Steal > noisySteal
	return h
}

// fit is how many periods the next pass may drive so that it and the passes
// after it (passesLeft in all) share what is left of budgetS equally, going by
// what the earlier passes took. cost scales the period time for a leg that
// runs the period another way. The count depends on the host's speed; the
// digest is taken at a fixed exchange, and the estimator is the fastest
// sample, so neither depends on the count.
func (r *result) fit(budgetS float64, passesLeft int, cost float64) int {
	steady := walls(r.steady())
	if len(steady) == 0 {
		return digestAt
	}
	var sum float64
	for _, w := range steady {
		sum += w
	}
	// The mean, not the median: a stretch of stolen time costs budget too.
	period := cost * sum / float64(len(steady))
	setup := median(walls(r.setups()))
	faulted := median(each(r.Passes, func(p *pass) float64 { return p.FaultedS }))
	share := fitShare * (budgetS - r.SpentS) / float64(passesLeft)
	n := 1 + int((share-setup-faulted)/period)
	if n < digestAt {
		n = digestAt
	}
	return n
}

// timed runs one pass and charges its wall time to the workload.
func (r *result) timed(fn func() *pass) *pass {
	t0 := time.Now()
	p := fn()
	r.SpentS += time.Since(t0).Seconds()
	return p
}

// runSet runs one set over the given workloads. The untraced part is the
// setup-only repeats, then P front-door passes per workload, interleaved
// across workloads (A B C D A B C D ...) so host drift hits all of them: a
// short calibration pass, then passes sized to use up the budget. The traced
// part is the planes-off leg where the workload has planes, then the layered
// leg. A full set with -trace runs both, each on its own budget of
// opt.Seconds per workload; a single-workload traced run fits two front-door
// passes and the traced legs into one budget.
func runSet(ws []workload, opt options, full bool) []*result {
	rs := make([]*result, len(ws))
	for i, w := range ws {
		rs[i] = &result{W: w, Probes: metrics{}}
	}
	tmp := filepath.Join(opt.OutDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		tmp = ""
	}
	tracers := make([]*tracer, len(ws))
	for i := range tracers {
		if opt.Trace {
			tracers[i] = newTracer()
		}
	}
	leg := func(i int, name string, pass int) legOptions {
		return legOptions{TmpRoot: tmp, Trace: tracers[i], ID: fmt.Sprintf("%s/%s/%d", ws[i].Name, name, pass)}
	}

	// tracedShares is what a workload's traced legs take of a budget, in
	// front-door passes' worth.
	tracedShares := func(w workload) int {
		if w.Post.Planes {
			return 1 + layeredCost
		}
		return layeredCost
	}

	untraced := full || !opt.Trace
	frontPasses, repeats, budget := passes, setupRepeatsSingle, opt.Seconds
	switch {
	case full:
		repeats = setupRepeats
	case !untraced:
		frontPasses, repeats = 2, 0
	}
	for k := 0; k < repeats; k++ {
		for i, r := range rs {
			w := ws[i]
			r.Setups = append(r.Setups, r.timed(func() *pass { return frontPass(w, 1, leg(i, "setup", k)) }))
		}
	}
	if untraced {
		// A distributed workload must end where the in-process run of the
		// same scenario does (without this, only a layered leg says so). It
		// runs before the sized passes so that they see what it took.
		for i, r := range rs {
			if ref := ws[i]; ref.Post.Driver == driverDistributed {
				ref.Post.Driver, ref.Post.Ranks, ref.Post.Checkpoint = driverAdvance, 1, false
				r.InProcess = r.timed(func() *pass { return frontPass(ref, digestAt, leg(i, "in-process", 0)) })
			}
		}
	}
	for k := 0; k < frontPasses; k++ {
		for i, r := range rs {
			w := ws[i]
			n := calibrationPeriods
			switch {
			case k == 0:
			case untraced:
				n = r.fit(budget, passes-k, 1)
			default:
				n = r.fit(budget-probeSeconds, 1+tracedShares(w), 1)
			}
			r.Passes = append(r.Passes, r.timed(func() *pass { return frontPass(w, n, leg(i, "front", k)) }))
		}
	}
	if opt.Trace {
		if untraced {
			budget += opt.Seconds
		}
		for i, r := range rs {
			w := ws[i]
			if w.Post.Planes {
				n := r.fit(budget-probeSeconds, tracedShares(w), 1)
				r.PlanesOff = r.timed(func() *pass {
					o := leg(i, "planes-off", 0)
					o.NoPlanes = true
					return frontPass(w, n, o)
				})
			}
			n := r.fit(budget-probeSeconds, 1, layeredCost)
			r.Layered = r.timed(func() *pass { return layeredPass(w, n, leg(i, "layered", 0), r.Probes) })
			if err := tracers[i].write(opt.OutDir, w.Name); err != nil {
				fmt.Fprintln(os.Stderr, "bench: writing trace:", err)
			}
		}
	}
	if tmp != "" {
		os.Remove(tmp)
	}
	return rs
}

// contractLine is the last line of stdout in single-workload mode.
type contractLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var opt options
	var name string
	var trace int
	var aa bool
	flag.StringVar(&name, "workload", "", "run one workload and print the result JSON as the last line (default: all four)")
	flag.Int64Var(&opt.Seed, "seed", 1, "workload seed: DPD random stream, platelet seeding, pulsatile phase")
	flag.Float64Var(&opt.Seconds, "seconds", 36, "wall budget per workload and set, set-ups included")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced legs and reports the per-layer metrics")
	flag.BoolVar(&aa, "aa", false, "A/A mode: run two sets of the same code and compare them against the bounds")
	flag.StringVar(&opt.OutDir, "out", filepath.Join("bench", "out"), "directory for generated inputs and traces")
	flag.BoolVar(&opt.Verbose, "v", false, "also print every pass's per-period samples")
	flag.Parse()
	opt.Trace = trace != 0

	all := generate(opt.Seed)
	for _, w := range all {
		if err := writeInputs(opt.OutDir, w); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}

	switch {
	case name != "":
		w, err := findWorkload(all, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		start := now()
		r := runSet([]workload{w}, opt, false)[0]
		fmt.Println(facts(opt.Seed, start))
		fmt.Print(r.report(opt.Trace, opt.Verbose))
		line := contractLine{Metrics: metrics{}}
		line.Attempted, line.Failed = r.attempted()
		line.Correct = len(r.problems()) == 0
		src, defs := r.endToEnd(), endToEnd
		if opt.Trace {
			src, defs = r.perLayer(), perLayer
		}
		for _, d := range defs {
			line.Metrics[d.Name] = src[d.Name]
		}
		out, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Println(string(out))
		if !line.Correct {
			os.Exit(1)
		}
	case aa:
		os.Exit(runAA(all, opt))
	default:
		start := now()
		rs := runSet(all, opt, true)
		fmt.Println(facts(opt.Seed, start))
		ok := true
		for _, r := range rs {
			fmt.Print(r.report(opt.Trace, opt.Verbose))
			ok = ok && len(r.problems()) == 0
		}
		if !ok {
			os.Exit(1)
		}
	}
}
