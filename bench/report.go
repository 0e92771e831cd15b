package main

// From passes to named metrics, and the printed report.

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one metric. Bound is the worsening an end-to-end metric
// may show before it counts as a regression (every one is lower-is-better);
// per-layer metrics have none.
type metricDef struct {
	Name, Unit string
	Bound      float64
}

// endToEnd and perLayer are the metrics of BENCHMARK.json, in printing order
// (a test holds the two lists equal to the file).
var endToEnd = []metricDef{
	{"period_wall_s", "s", 0.25},
	{"period_cpu_s", "s", 0.25},
	{"setup_s", "s", 0.25},
	{"live_heap_mb", "MB", 0.10},
}

var perLayer = []metricDef{
	{Name: "config.build_s", Unit: "s"},
	{Name: "core.first_period_s", Unit: "s"},
	{Name: "core.exchange_s", Unit: "s"},
	{Name: "core.overlap_ratio", Unit: "ratio"},
	{Name: "core.patch_imbalance", Unit: "ratio"},
	{Name: "core.allocs_per_period", Unit: "count"},
	{Name: "core.alloc_bytes_per_period", Unit: "B"},
	{Name: "core.faulted_period_s", Unit: "s"},
	{Name: "core.max_divergence", Unit: "1/s"},
	{Name: "core.overlap_rms", Unit: "m/s"},
	{Name: "nektar3d.run_s", Unit: "s"},
	{Name: "nektar3d.pressure_iters", Unit: "count"},
	{Name: "nektar3d.helmholtz_iters", Unit: "count"},
	{Name: "nektar3d.poisson_probe_s", Unit: "s"},
	{Name: "nektar3d.poisson_probe_iters", Unit: "count"},
	{Name: "linalg.cg_iter_s", Unit: "s"},
	{Name: "nektar3d.helmholtz_probe_s", Unit: "s"},
	{Name: "nektar3d.helmholtz_probe_iters", Unit: "count"},
	{Name: "nektar3d.stiffness_apply_s", Unit: "s"},
	{Name: "nektar3d.stiffness_gflops", Unit: "Gflop/s"},
	{Name: "dpd.run_s", Unit: "s"},
	{Name: "dpd.step_s", Unit: "s"},
	{Name: "dpd.forces_s", Unit: "s"},
	{Name: "dpd.forces_frac", Unit: "ratio"},
	{Name: "dpd.particles", Unit: "count"},
	{Name: "dpd.inserted_per_period", Unit: "count"},
	{Name: "dpd.deleted_per_period", Unit: "count"},
	{Name: "dpd.particle_steps_per_s", Unit: "1/s"},
	{Name: "nektar1d.exchange_s", Unit: "s"},
	{Name: "nektar1d.steps_per_period", Unit: "count"},
	{Name: "nektar1d.step_s", Unit: "s"},
	{Name: "checkpoint.write_s", Unit: "s"},
	{Name: "checkpoint.bytes", Unit: "B"},
	{Name: "checkpoint.encode_s", Unit: "s"},
	{Name: "checkpoint.encode_mb_per_s", Unit: "MB/s"},
	{Name: "checkpoint.load_s", Unit: "s"},
	{Name: "checkpoint.restore_s", Unit: "s"},
	{Name: "planes.overhead_s", Unit: "s"},
	{Name: "planes.overhead_frac", Unit: "ratio"},
	{Name: "world.rank_period_s", Unit: "s"},
	{Name: "world.rank_skew_s", Unit: "s"},
	{Name: "tcp.frames_per_period", Unit: "count"},
	{Name: "tcp.bytes_per_period", Unit: "B"},
	{Name: "mpi.p2p_rtt_s", Unit: "s"},
	{Name: "mpi.p2p_rtt_inproc_s", Unit: "s"},
	{Name: "mpi.allreduce_s", Unit: "s"},
	{Name: "mci.exchange_s", Unit: "s"},
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// result is everything one set of runs measured on one workload.
type result struct {
	W      workload
	Passes []*pass // front-door passes, in order
	Setups []*pass // one-period passes run for their set-up time only
	// InProcess is the single-process run of a distributed workload's
	// scenario, run for its state digest only.
	InProcess *pass

	// Traced legs (nil in an untraced set).
	Layered   *pass
	PlanesOff *pass
	Probes    metrics

	SpentS float64 // wall seconds this workload's passes took
}

func pool(ps []*pass, f func(*pass) []float64) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, f(p)...)
	}
	return out
}

func each(ps []*pass, f func(*pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// steady pools the steady-period samples of the front-door passes.
func (r *result) steady() []sample {
	var out []sample
	for _, p := range r.Passes {
		out = append(out, p.Steady...)
	}
	return out
}

// attempted and failed count exchange periods over every pass of the set; a
// pass that errored or failed a check counts all its periods as failed.
func (r *result) attempted() (attempted, failed int) {
	for _, p := range r.all() {
		attempted += p.Periods
		if p.failed() {
			failed += p.Periods
		}
	}
	return attempted, failed
}

func (r *result) all() []*pass {
	ps := append([]*pass(nil), r.Passes...)
	ps = append(ps, r.Setups...)
	for _, p := range []*pass{r.InProcess, r.Layered, r.PlanesOff} {
		if p != nil {
			ps = append(ps, p)
		}
	}
	return ps
}

// problems lists every failed check and error of the set, plus the
// cross-pass digest comparison: every pass of one seed, traced or not, must
// end exchange digestAt in the same state.
func (r *result) problems() []string {
	var out []string
	var ref *uint64
	for _, p := range r.all() {
		if p.Err != nil {
			out = append(out, fmt.Sprintf("%s: %v", p.ID, p.Err))
			continue
		}
		for _, f := range p.Failures {
			out = append(out, fmt.Sprintf("%s: %s", p.ID, f))
		}
		if p.Periods < digestAt {
			continue
		}
		if ref == nil {
			ref = &p.Digest[0]
		} else if p.Digest[0] != *ref {
			out = append(out, fmt.Sprintf("%s: state digest %016x differs from the first pass's %016x", p.ID, p.Digest[0], *ref))
		}
	}
	return out
}

// digest is the set's state digest at exchange digestAt (0 if no pass got
// there).
func (r *result) digest() uint64 {
	for _, p := range r.all() {
		if p.Err == nil && p.Periods >= digestAt {
			return p.Digest[0]
		}
	}
	return 0
}

// setups are the set-up samples of the set: the front-door passes' plus the
// setup-only repeats'.
func (r *result) setups() []sample {
	var out []sample
	for _, p := range append(r.Passes[:len(r.Passes):len(r.Passes)], r.Setups...) {
		if p.Err == nil {
			out = append(out, p.Setup)
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics from the front-door passes. The
// timings are the fastest sample, wall times net of hypervisor steal (see
// fastest and sample.net); the report prints the plain medians beside them.
func (r *result) endToEnd() metrics {
	m := metrics{}
	steady := r.steady()
	m.set("period_wall_s", fastest(sampleValues(steady, sample.net)), "s")
	m.set("period_cpu_s", fastest(sampleValues(steady, func(iv sample) float64 { return iv.CPU })), "s")
	m.set("setup_s", fastest(sampleValues(r.setups(), sample.net)), "s")
	m.set("live_heap_mb", median(each(r.Passes, func(p *pass) float64 { return p.HeapMB })), "MB")
	return m
}

// perLayer computes the per-layer metrics of a traced set. Metrics of layers
// a workload bypasses read 0.
func (r *result) perLayer() metrics {
	m := metrics{}
	for _, d := range perLayer {
		m.set(d.Name, 0, d.Unit)
	}
	for k, v := range r.Probes {
		m[k] = v
	}
	front, lay := r.Passes, r.Layered
	// Raw wall on both sides of every ratio: the layered leg's busy times
	// carry no steal reading of their own.
	wall := fastest(walls(r.steady()))

	m.set("config.build_s", median(each(r.all(), func(p *pass) float64 { return p.BuildS })), "s")
	m.set("core.allocs_per_period", median(each(front, func(p *pass) float64 { return p.Mallocs })), "count")
	m.set("core.alloc_bytes_per_period", median(each(front, func(p *pass) float64 { return p.AllocBytes })), "B")
	m.set("core.faulted_period_s", median(each(front, func(p *pass) float64 { return p.FaultedS })), "s")
	m.set("world.rank_period_s", fastest(pool(front, func(p *pass) []float64 { return p.RankPeriod })), "s")
	m.set("world.rank_skew_s", median(pool(front, func(p *pass) []float64 { return p.RankSkew })), "s")
	if p := front[0]; p.WirePeriods > 0 {
		m.set("tcp.frames_per_period", float64(p.Wire.Frames)/float64(p.WirePeriods), "count")
		m.set("tcp.bytes_per_period", float64(p.Wire.Bytes)/float64(p.WirePeriods), "B")
	}
	if lay == nil || lay.Err != nil {
		return m
	}
	busy := func(layer string) float64 { return fastest(lay.Layers[layer]) }

	m.set("core.first_period_s", lay.FirstPeriodS, "s")
	m.set("core.max_divergence", lay.MaxDivergence, "1/s")
	m.set("core.overlap_rms", lay.Overlap, "m/s")
	m.set("core.exchange_s", busy("core.exchange"), "s")
	m.set("nektar3d.run_s", busy("nektar3d.run"), "s")
	m.set("dpd.run_s", busy("dpd.run"), "s")
	m.set("nektar1d.exchange_s", busy("nektar1d.exchange"), "s")
	m.set("checkpoint.write_s", busy("checkpoint.write"), "s")
	if wall > 0 {
		m.set("core.overlap_ratio", fastest(walls(lay.Steady))/wall, "ratio")
	}
	var patchBusy []float64
	for name, ts := range lay.Layers {
		if strings.HasPrefix(name, "nektar3d.run:") {
			patchBusy = append(patchBusy, fastest(ts))
		}
	}
	if len(patchBusy) > 0 {
		var sum, max float64
		for _, b := range patchBusy {
			sum += b
			max = math.Max(max, b)
		}
		m.set("core.patch_imbalance", 1-sum/float64(len(patchBusy))/max, "ratio")
	}
	if lay.DPDSteps > 0 {
		run := busy("dpd.run")
		m.set("dpd.step_s", run/float64(lay.DPDSteps), "s")
		m.set("dpd.forces_frac", m["dpd.forces_s"].Value/(run/float64(lay.DPDSteps)), "ratio")
		m.set("dpd.particles", float64(lay.Counters.Particles), "count")
		m.set("dpd.inserted_per_period", float64(lay.Counters.Inserted)/float64(lay.Periods), "count")
		m.set("dpd.deleted_per_period", float64(lay.Counters.Deleted)/float64(lay.Periods), "count")
		m.set("dpd.particle_steps_per_s", float64(lay.Counters.Particles)*float64(lay.DPDSteps)/run, "1/s")
	}
	if n := lay.Counters.Steps1D; n > 0 {
		per := float64(n) / float64(lay.Periods)
		m.set("nektar1d.steps_per_period", per, "count")
		m.set("nektar1d.step_s", busy("nektar1d.exchange")/per, "s")
	}
	if off := r.PlanesOff; off != nil && off.Err == nil && len(off.Steady) > 0 {
		over := wall - fastest(walls(off.Steady))
		m.set("planes.overhead_s", over, "s")
		m.set("planes.overhead_frac", over/wall, "ratio")
	}
	return m
}

// layerShares returns each layer's share of the summed layer busy time of
// the layered pass, largest first.
func (r *result) layerShares() string {
	if r.Layered == nil {
		return ""
	}
	type share struct {
		name string
		s    float64
	}
	var shares []share
	var total float64
	for name, ts := range r.Layered.Layers {
		if strings.Contains(name, ":") || name == "checkpoint.resume" {
			continue
		}
		shares = append(shares, share{name, fastest(ts)})
		total += fastest(ts)
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].s > shares[j].s })
	var b strings.Builder
	for _, s := range shares {
		fmt.Fprintf(&b, "  %-32s %6.1f %%  (%.4g s)\n", s.name, 100*s.s/total, s.s)
	}
	return b.String()
}

// report prints a workload's metrics by name with unit and sample counts.
func (r *result) report(traced, verbose bool) string {
	var b strings.Builder
	raw := walls(r.steady())
	att, failed := r.attempted()
	fmt.Fprintf(&b, "workload %s: %s\n", r.W.Name, r.W.Why)
	fmt.Fprintf(&b, "  passes=%d periods/pass=%v period_samples=%d setup_samples=%d spent=%.1fs digest@%d=%016x\n",
		len(r.Passes), each(r.Passes, func(p *pass) float64 { return float64(p.Periods) }),
		len(raw), len(r.setups()), r.SpentS, digestAt, r.digest())
	b.WriteString(r.endToEnd().format(names(endToEnd)))
	fmt.Fprintf(&b, "  %-32s %14.6g ratio (%d of %d periods)\n", "failed_frac", float64(failed)/float64(att), failed, att)
	fmt.Fprintf(&b, " as the clock read it, steal included (not gated):\n")
	fmt.Fprintf(&b, "  %-32s %14.6g s\n", "period_wall_s.median", median(raw))
	if pct, v, ok := highPercentile(raw); ok {
		fmt.Fprintf(&b, "  %-32s %14.6g s\n", fmt.Sprintf("period_wall_s.p%d", pct), v)
	} else {
		fmt.Fprintf(&b, "  period_wall_s tail: fewer than 10 samples beyond p75 (%d samples)\n", len(raw))
	}
	fmt.Fprintf(&b, "  %-32s %14.6g s\n", "setup_s.median", median(walls(r.setups())))
	for _, rc := range r.Passes[len(r.Passes)-1].Regions {
		fmt.Fprintf(&b, "  region %s: T=%.4g (kBT %.4g) density=%.4g (rho %.4g) interface_rms=%.4g\n",
			rc.Name, rc.Temperature, rc.KBT, rc.Density, rc.Rho, rc.InterfaceRMS)
	}
	if traced {
		b.WriteString(" per-layer (traced legs):\n")
		b.WriteString(r.perLayer().format(names(perLayer)))
		b.WriteString(" layer shares of summed busy time:\n")
		b.WriteString(r.layerShares())
	}
	if verbose {
		for _, p := range r.all() {
			fmt.Fprintf(&b, "  %s: setup %.4f periods {wall cpu stolen} %.4f\n", p.ID, p.Setup, p.Steady)
		}
	}
	for _, p := range r.problems() {
		fmt.Fprintf(&b, "  FAILED: %s\n", p)
	}
	return b.String()
}
