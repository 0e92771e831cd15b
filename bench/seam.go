package main

// seam.go is the only file of the harness that names program symbols. A PR
// that moves an API has this one file to look at; everything else in the
// package speaks in terms of sim, world and the probe functions below.
//
// The harness enters the program through its public front doors only:
// config.Load/Build, core.Metasolver.Advance, core.OutletTo1D.Exchange,
// core.RunWithRecovery, core.RunDistributed, core.Checkpointer and
// tcptransport.Loopback. The traced leg calls the same public pieces Advance
// runs, one layer at a time (sim.layers), and the probes call public
// operators on the workload's own grid and particle system.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nektarg/internal/audit"
	"nektarg/internal/checkpoint"
	"nektarg/internal/config"
	"nektarg/internal/core"
	"nektarg/internal/geometry"
	"nektarg/internal/history"
	"nektarg/internal/insitu"
	"nektarg/internal/mci"
	"nektarg/internal/monitor"
	"nektarg/internal/mpi"
	"nektarg/internal/mpi/tcptransport"
	"nektarg/internal/nektar1d"
	"nektarg/internal/telemetry"
)

// sim is one rank's fully wired coupled simulation.
type sim struct {
	cfg  *config.Config
	b    *config.Built
	meta *core.Metasolver
	post postSpec

	tree *nektar1d.Network
	out  *core.OutletTo1D
	ck   *core.Checkpointer

	// Planes (nil/zero when off).
	reg    *telemetry.Registry
	mon    *monitor.Monitor
	queue  *insitu.Queue
	obs    *insitu.Observer
	obsEnd chan struct{}

	// buildS is the Load+Build share of the wiring time.
	buildS float64
}

// simOptions are the per-leg choices the harness makes on top of a workload.
type simOptions struct {
	// StoreDir is the checkpoint store directory (workloads that checkpoint).
	StoreDir string
	// NoPlanes builds a planes workload with every plane off (the second
	// leg behind planes.overhead_s).
	NoPlanes bool
	// CGGauges attaches bare telemetry recorders to the patch solvers so the
	// traced leg can read the exact CG iteration gauges.
	CGGauges bool
}

// newSim takes a workload's generated inputs through config.Load, Build and
// the post-wiring.
func newSim(w workload, opt simOptions) (*sim, error) {
	t0 := time.Now()
	cfg, err := config.Load(bytes.NewReader(w.Config))
	if err != nil {
		return nil, err
	}
	b, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	s := &sim{cfg: cfg, b: b, meta: b.Meta, post: w.Post, buildS: time.Since(t0).Seconds()}

	phase := w.Post.Phase
	for _, name := range w.Post.Pulsatile {
		p, ok := b.Patches[name]
		if !ok {
			return nil, fmt.Errorf("bench: pulsatile patch %q not in config", name)
		}
		p.Solver.Force = func(t, _, _, _ float64) (float64, float64, float64) {
			return 1 + 0.8*math.Sin(2*math.Pi*t/0.4+phase), 0, 0
		}
	}
	s.meta.SetParallelism(w.Post.Parallel)

	if ts := w.Post.Tree; ts != nil {
		p, ok := b.Patches[ts.Patch]
		if !ok {
			return nil, fmt.Errorf("bench: tree patch %q not in config", ts.Patch)
		}
		spec := nektar1d.DefaultTreeSpec(ts.Generations)
		spec.NodesPerSegment = ts.NodesPerSegment
		tree, inlet, err := nektar1d.BuildFractalTree(spec)
		if err != nil {
			return nil, err
		}
		if s.out, err = core.NewOutletTo1D(p, ts.Face, tree, inlet, ts.AreaScale); err != nil {
			return nil, err
		}
		s.tree = tree
	}

	if w.Post.Planes && !opt.NoPlanes {
		s.enablePlanes(opt.StoreDir)
	} else if opt.CGGauges {
		reg := telemetry.NewRegistry()
		for _, p := range s.meta.Patches {
			p.Solver.Rec = reg.NewRecorder("patch:" + p.Name)
		}
	}

	if w.Post.Checkpoint {
		if opt.StoreDir == "" {
			return nil, errors.New("bench: workload checkpoints but no store directory was given")
		}
		s.ck = &core.Checkpointer{
			Meta:  s.meta,
			Store: &checkpoint.Store{Dir: opt.StoreDir},
			Every: 1,
		}
		if s.tree != nil {
			s.ck.Networks = map[string]*nektar1d.Network{"tree": s.tree}
		}
	}
	return s, nil
}

// enablePlanes turns on every observer plane the way cmd/nektarg's setup
// does with -telemetry -monitor-addr -audit -history -insitu, minus the HTTP
// listener.
func (s *sim) enablePlanes(flightDir string) {
	s.reg = telemetry.NewRegistry()
	s.meta.EnableTelemetry(s.reg)
	s.mon = monitor.New(s.reg, monitor.Options{FlightDir: filepath.Join(flightDir, "flight")})
	s.meta.EnableMonitoring(s.mon.Health())
	if s.tree != nil {
		s.tree.Rec = s.reg.NewRecorder("1d:tree")
		s.tree.Watch = s.mon.Health().Watch("1d:tree")
	}
	led := audit.New(audit.Options{
		Rec:   s.reg.NewRecorder("audit"),
		Watch: s.mon.Health().Watch("audit"),
	})
	s.meta.EnableAudit(led)
	if s.out != nil {
		s.out.Aud = led
	}
	s.meta.EnableHistory(history.New(history.Options{}))

	pub, q := insitu.NewPipeline(insitu.Config{})
	s.queue = q
	s.obs = insitu.NewObserver(insitu.ObserverConfig{
		Sources: insitu.ExpectedSources(s.meta),
		Rec:     s.reg.NewRecorder("observer"),
	})
	s.obs.SetStatsSource(q.Stats)
	s.meta.EnableInsitu(pub)
	s.obsEnd = make(chan struct{})
	go func() {
		defer close(s.obsEnd)
		s.obs.Run(q)
	}()
}

// close stops the observer goroutine, if any, and waits for it.
func (s *sim) close() {
	if s.queue != nil {
		s.queue.Close()
		<-s.obsEnd
		s.queue = nil
	}
}

// afterExchange is what every driver runs after a successful exchange: the
// 1D coupling step (as cmd/nektarg's per-exchange hook does), then the
// harness hook.
func (s *sim) afterExchange(e int, hook func(e int) error) error {
	if s.out != nil {
		if _, _, err := s.out.Exchange(s.post.Tree.Dt1D); err != nil {
			return fmt.Errorf("1D exchange %d: %w", e, err)
		}
	}
	return hook(e)
}

// drive advances a single-rank workload to the target exchange count through
// its own front door, calling hook after every exchange.
func (s *sim) drive(periods int, hook func(e int) error) error {
	switch s.post.Driver {
	case driverAdvance:
		for s.meta.Exchanges < periods {
			if err := s.meta.Advance(1); err != nil {
				return err
			}
			if err := s.afterExchange(s.meta.Exchanges, hook); err != nil {
				return err
			}
		}
		return nil
	case driverRecovery:
		var health *monitor.Health
		var source func() []*telemetry.Recorder
		if s.mon != nil {
			health = s.mon.Health()
			source = s.reg.Recorders
		}
		flight := monitor.NewFlightRecorder(filepath.Join(s.ck.Store.Dir, "flight"), source, health)
		err := core.RunWithRecovery(s.ck, periods, core.RecoveryOptions{
			Flight:     flight,
			Health:     health,
			OnExchange: func(e int) error { return s.afterExchange(e, hook) },
		})
		if err != nil && health != nil {
			// The recovery loop reports that it gave up, not why: say which
			// watchdogs tripped.
			for _, ev := range health.Events() {
				if ev.Severity >= monitor.SevCritical {
					err = fmt.Errorf("%w; %s/%s: %s", err, ev.Watchdog, ev.Track, ev.Message)
				}
			}
		}
		return err
	default:
		return fmt.Errorf("bench: driver %q is not a single-rank driver", s.post.Driver)
	}
}

// wireStats is the TCP traffic of one rank, summed over its peers.
type wireStats struct {
	Frames, Bytes int64
}

// world is a multi-rank workload: one replica sim per rank over a TCP
// loopback transport.
type world struct {
	sims []*sim
	trs  []*tcptransport.Transport
}

func newWorld(w workload, storeDirs []string) (*world, error) {
	trs, err := tcptransport.Loopback(len(storeDirs))
	if err != nil {
		return nil, err
	}
	wd := &world{trs: trs}
	for _, dir := range storeDirs {
		s, err := newSim(w, simOptions{StoreDir: dir})
		if err != nil {
			return nil, err
		}
		wd.sims = append(wd.sims, s)
	}
	return wd, nil
}

// drive runs core.RunDistributed on every rank, each on its own goroutine
// with its own store, and returns the first error. A lost world is not
// re-dialled: the benchmark injects no fault here, so losing it is a
// failure.
func (wd *world) drive(periods int, hook func(rank, e int) error) error {
	errs := make([]error, len(wd.sims))
	var wg sync.WaitGroup
	for r := range wd.sims {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := wd.sims[r]
			dialled := false
			errs[r] = core.RunDistributed(s.ck, periods, core.DistributedOptions{
				Dial: func() (mpi.Transport, error) {
					if dialled {
						return nil, errors.New("bench: world lost")
					}
					dialled = true
					return wd.trs[r], nil
				},
				MaxRestarts: 1,
				Backoff:     time.Millisecond,
				OnExchange: func(_ *mpi.Comm, e int) error {
					return s.afterExchange(e, func(e int) error { return hook(r, e) })
				},
			})
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// wire reads rank r's transport counters.
func (wd *world) wire(r int) wireStats {
	var ws wireStats
	for _, p := range wd.trs[r].Stats().Peers {
		ws.Frames += p.FramesSent + p.FramesRecv
		ws.Bytes += p.BytesSent + p.BytesRecv
	}
	return ws
}

// layer is one public piece of an exchange period, named as the trace names
// its span.
type layer struct {
	Name string
	Run  func() error
}

// layers lists, in Advance's order, the public calls that make up one
// exchange period of this sim. Running them one after another on one
// goroutine does the same work Advance does concurrently (patches are
// independent within a period), so busy times add up and the state digest
// must match.
func (s *sim) layers() []layer {
	ls := []layer{{"core.exchange", s.meta.ExchangeInterfaceConditions}}
	ns := s.meta.NSStepsPerExchange
	for _, p := range s.meta.Patches {
		p := p
		ls = append(ls, layer{"nektar3d.run:" + p.Name, func() error { return p.Solver.Run(ns) }})
	}
	for _, a := range s.meta.Atomistic {
		a := a
		ls = append(ls, layer{"dpd.run:" + a.Name, func() error {
			a.Sys.Run(ns * s.meta.DPDStepsPerNS)
			return nil
		}})
	}
	if s.out != nil {
		ls = append(ls, layer{"nektar1d.exchange", func() error {
			_, _, err := s.out.Exchange(s.post.Tree.Dt1D)
			return err
		}})
	}
	if s.ck != nil {
		ls = append(ls, layer{"checkpoint.write", func() error {
			_, err := s.ck.Checkpoint()
			return err
		}})
	}
	return ls
}

// resume reloads the newest checkpoint onto the live wiring, as the recovery
// loop does after a fault.
func (s *sim) resume() error {
	_, err := s.ck.Resume()
	return err
}

// baseline writes the checkpoint the recovery loops write before the first
// period, so the layered leg's set-up does what the front door's does.
func (s *sim) baseline() error {
	if s.ck == nil {
		return nil
	}
	_, err := s.ck.Checkpoint()
	return err
}

// ---- state and correctness -------------------------------------------------

func hashFloats(h hash.Hash64, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// digest hashes the physics state: patch fields, particles, 1D state. Two
// sims with equal digests are in the same state bit for bit.
func (s *sim) digest() uint64 {
	h := fnv.New64a()
	for _, p := range s.meta.Patches {
		sv := p.Solver
		hashFloats(h, float64(sv.Steps), sv.Time)
		hashFloats(h, sv.U...)
		hashFloats(h, sv.V...)
		hashFloats(h, sv.W...)
		hashFloats(h, sv.Pr...)
	}
	for _, a := range s.meta.Atomistic {
		hashFloats(h, float64(a.Sys.Step), float64(len(a.Sys.Particles)))
		for i := range a.Sys.Particles {
			q := &a.Sys.Particles[i]
			hashFloats(h, float64(q.ID), float64(q.Species),
				q.Pos.X, q.Pos.Y, q.Pos.Z, q.Vel.X, q.Vel.Y, q.Vel.Z)
		}
	}
	if s.tree != nil {
		st := s.tree.CaptureState()
		hashFloats(h, st.Time, float64(st.Steps))
		for _, seg := range st.Segments {
			hashFloats(h, seg.A...)
			hashFloats(h, seg.U...)
		}
		hashFloats(h, st.OutletP...)
	}
	return h.Sum64()
}

// maxDivergence is the worst incompressibility violation over patches.
func (s *sim) maxDivergence() float64 {
	var m float64
	for _, p := range s.meta.Patches {
		m = math.Max(m, p.Solver.MaxDivergence())
	}
	return m
}

// overlapRMS is the RMS velocity mismatch between coupled patches at fixed
// points of their overlap — the check cmd/nektarg prints (x at 0.2/0.5/0.8
// of the overlap, y mid-box, z at the quarter points). 0 without couplings.
func (s *sim) overlapRMS() float64 {
	var sum float64
	var n int
	seen := map[[2]string]bool{}
	for _, c := range s.meta.Couplings {
		a, b := c.Donor, c.Receiver
		if seen[[2]string{b.Name, a.Name}] {
			continue
		}
		seen[[2]string{a.Name, b.Name}] = true
		lo := math.Max(a.Origin.X, b.Origin.X)
		hi := math.Min(a.Origin.X+a.Solver.G.Lx, b.Origin.X+b.Solver.G.Lx)
		for _, fx := range []float64{0.2, 0.5, 0.8} {
			for _, z := range []float64{0.25, 0.5, 0.75} {
				g := geometry.Vec3{X: lo + fx*(hi-lo), Y: 0.5, Z: z}
				ua, va, wa := a.SampleVelocity(g)
				ub, vb, wb := b.SampleVelocity(g)
				sum += geometry.Vec3{X: ua - ub, Y: va - vb, Z: wa - wb}.Norm2()
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// regionCheck is the physical state of one DPD region against its targets.
type regionCheck struct {
	Name             string
	Temperature, KBT float64
	Density, Rho     float64
	InterfaceRMS     float64
}

func (s *sim) regionChecks() []regionCheck {
	var out []regionCheck
	for i, a := range s.meta.Atomistic {
		rms, _ := s.meta.InterfaceContinuity(a, 2.5)
		out = append(out, regionCheck{
			Name:         a.Name,
			Temperature:  a.Sys.Temperature(),
			KBT:          a.Sys.KBT,
			Density:      a.Sys.NumberDensity(),
			Rho:          s.cfg.Regions[i].Rho,
			InterfaceRMS: rms,
		})
	}
	return out
}

// auditCritical reports whether the audit ledger ended with a latched
// critical budget (false with the plane off).
func (s *sim) auditCritical() bool {
	led := s.meta.Audit()
	return led != nil && !led.Healthy()
}

// counters are the public work counters of a sim.
type counters struct {
	Exchanges         int
	Particles         int
	Inserted, Deleted int64
	Steps1D           int
}

func (s *sim) counters() counters {
	c := counters{Exchanges: s.meta.Exchanges}
	for _, a := range s.meta.Atomistic {
		c.Particles += len(a.Sys.Particles)
		c.Inserted += a.Sys.Inserted
		c.Deleted += a.Sys.Deleted
	}
	if s.tree != nil {
		c.Steps1D = s.tree.Steps
	}
	return c
}

// dpdStepsPerPeriod is the number of VVSteps every region takes per period.
func (s *sim) dpdStepsPerPeriod() int {
	if len(s.meta.Atomistic) == 0 {
		return 0
	}
	return s.meta.NSStepsPerExchange * s.meta.DPDStepsPerNS
}

// cgIters returns the mean CG iterations per pressure solve and per
// Helmholtz solve (three per step) over all patches, from the solver gauges.
func (s *sim) cgIters() (pressure, helmholtz float64) {
	var pSum, hSum float64
	var pN, hN int64
	for _, p := range s.meta.Patches {
		p.Solver.Rec.VisitGauges(func(name string, g telemetry.GaugeStats) {
			switch name {
			case "ns.pressure.iters":
				pSum += g.Sum
				pN += g.Count
			case "ns.helmholtz.iters":
				hSum += g.Sum
				hN += 3 * g.Count
			}
		})
	}
	if pN > 0 {
		pressure = pSum / float64(pN)
	}
	if hN > 0 {
		helmholtz = hSum / float64(hN)
	}
	return pressure, helmholtz
}

// ---- probes ------------------------------------------------------------------

// kernelProbes calls public operators on the largest patch grid: one Poisson
// and one Helmholtz solve of a fixed analytic right-hand side from a zero
// guess (iterations separate "fewer" from "cheaper"), and ApplyStiffness.
func (s *sim) kernelProbes(m metrics) error {
	var big *core.ContinuumPatch
	for _, p := range s.meta.Patches {
		if big == nil || p.Solver.G.NumNodes() > big.Solver.G.NumNodes() {
			big = p
		}
	}
	g, sv := big.Solver.G, big.Solver
	rhs := g.NewField()
	g.FillField(rhs, func(x, y, z float64) float64 {
		return math.Cos(math.Pi*x/g.Lx) * math.Cos(math.Pi*z/g.Lz)
	})
	mean := g.Mean(rhs)
	for i := range rhs {
		rhs[i] -= mean
	}
	u := g.NewField()

	var iters int
	var err error
	sec := timeMedian(3, func() {
		for i := range u {
			u[i] = 0
		}
		st, e := g.SolvePoissonNeumannIn(u, rhs, sv.Tol, sv.MaxIter)
		iters, err = st.Iterations, errors.Join(err, e)
	})
	if err != nil {
		return fmt.Errorf("poisson probe: %w", err)
	}
	m.set("nektar3d.poisson_probe_s", sec, "s")
	m.set("nektar3d.poisson_probe_iters", float64(iters), "count")
	if iters > 0 {
		m.set("linalg.cg_iter_s", sec/float64(iters), "s")
	}

	lambda := 1.5 / (sv.Nu * sv.Dt)
	bc := g.NewField()
	sec = timeMedian(3, func() {
		for i := range u {
			u[i] = 0
		}
		st, e := g.SolveHelmholtzDirichletIn(u, lambda, rhs, bc, sv.Tol, sv.MaxIter)
		iters, err = st.Iterations, errors.Join(err, e)
	})
	if err != nil {
		return fmt.Errorf("helmholtz probe: %w", err)
	}
	m.set("nektar3d.helmholtz_probe_s", sec, "s")
	m.set("nektar3d.helmholtz_probe_iters", float64(iters), "count")

	y := g.NewField()
	const applies = 20
	sec = timeMedian(9, func() {
		for i := 0; i < applies; i++ {
			g.ApplyStiffness(y, rhs)
		}
	}) / applies
	m.set("nektar3d.stiffness_apply_s", sec, "s")
	// Computed, not measured: three tensor-product derivative sweeps in and
	// three transposed sweeps out, 2(P+1) flops per node each, plus the
	// 3-term diagonal scaling, per element.
	np := float64(g.P + 1)
	flops := float64(g.Nex*g.Ney*g.Nez) * np * np * np * (12*np + 6)
	m.set("nektar3d.stiffness_gflops", flops/sec/1e9, "Gflop/s")
	return nil
}

// forcesProbe times ComputeForces on the first region's final system. It
// draws from the region's RNG, so it runs after the digest is taken.
func (s *sim) forcesProbe(m metrics) {
	sys := s.meta.Atomistic[0].Sys
	m.set("dpd.forces_s", timeMedian(9, sys.ComputeForces), "s")
}

// checkpointProbes times the durability path on the sim's last bundle:
// encode to a discard writer, load of the newest file (Store.Latest), and
// Checkpointer.Resume, which loads it again and overlays it onto the live
// wiring.
func (s *sim) checkpointProbes(m metrics) error {
	bundle := s.meta.CaptureCheckpoint(s.ck.Networks)
	var err error
	enc := timeMedian(5, func() { err = errors.Join(err, checkpoint.Save(io.Discard, bundle)) })
	var path string
	load := timeMedian(5, func() {
		p, _, e := s.ck.Store.Latest()
		path, err = p, errors.Join(err, e)
	})
	restore := timeMedian(5, func() {
		_, e := s.ck.Resume()
		err = errors.Join(err, e)
	})
	if err != nil {
		return fmt.Errorf("checkpoint probes: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("checkpoint.bytes", float64(fi.Size()), "B")
	m.set("checkpoint.encode_s", enc, "s")
	m.set("checkpoint.encode_mb_per_s", float64(fi.Size())/1e6/enc, "MB/s")
	m.set("checkpoint.load_s", load, "s")
	m.set("checkpoint.restore_s", restore, "s") // Resume: the load again, plus the overlay
	return nil
}

// gammaIPayload is the ΓI trace size in float64s: receiver-face nodes × 3
// velocity components, for the first coupling.
func (s *sim) gammaIPayload() int {
	if len(s.meta.Couplings) == 0 {
		return 0
	}
	c := s.meta.Couplings[0]
	return 3 * len(c.Receiver.Solver.G.FacePoints(c.Face))
}

// onLoopback runs body on every rank of a fresh n-rank TCP loopback world.
func onLoopback(n int, body func(w *mpi.Comm)) error {
	trs, err := tcptransport.Loopback(n)
	if err != nil {
		return err
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr *tcptransport.Transport) {
			defer wg.Done()
			errs[i] = mpi.RunOn(tr, body)
		}(i, tr)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// commProbes bounds what the world workload can gain from a cheaper wire
// and will pay for real coupling traffic: a ping-pong of the ΓI payload over
// TCP and in process, the 1-int commit allreduce, and the Figure-4 interface
// exchange of that payload between two 1-rank tasks.
func commProbes(payload int, m metrics) error {
	const rounds = 200
	buf := make([]float64, payload)
	pingPong := func(out *float64) func(w *mpi.Comm) {
		return func(w *mpi.Comm) {
			w.Barrier()
			if w.Rank() == 0 {
				t0 := time.Now()
				for i := 0; i < rounds; i++ {
					w.Send(1, 1, buf)
					w.Recv(1, 2)
				}
				*out = time.Since(t0).Seconds() / rounds
			} else {
				for i := 0; i < rounds; i++ {
					w.Send(0, 2, w.Recv(0, 1))
				}
			}
		}
	}
	var rtt, rttIn, allred, exch float64
	if err := onLoopback(2, pingPong(&rtt)); err != nil {
		return err
	}
	if err := mpi.Run(2, pingPong(&rttIn)); err != nil {
		return err
	}
	err := onLoopback(2, func(w *mpi.Comm) {
		w.Barrier()
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			w.AllreduceInt([]int{i}, mpi.MinInt)
		}
		if w.Rank() == 0 {
			allred = time.Since(t0).Seconds() / rounds
		}
	})
	if err != nil {
		return err
	}
	cfg := mci.Config{Tasks: []mci.TaskSpec{{Name: "a", Ranks: 1}, {Name: "b", Ranks: 1}}}
	err = onLoopback(2, func(w *mpi.Comm) {
		h, err := mci.Build(w, cfg)
		if err != nil {
			panic(err)
		}
		g, err := mci.NewInterfaceGroup(h, "gammaI", true)
		if err != nil {
			panic(err)
		}
		peer := 1 - w.Rank()
		w.Barrier()
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			g.Exchange(h.World, peer, g.Salt(), buf, []int{payload})
		}
		if w.Rank() == 0 {
			exch = time.Since(t0).Seconds() / rounds
		}
	})
	if err != nil {
		return err
	}
	m.set("mpi.p2p_rtt_s", rtt, "s")
	m.set("mpi.p2p_rtt_inproc_s", rttIn, "s")
	m.set("mpi.allreduce_s", allred, "s")
	m.set("mci.exchange_s", exch, "s")
	return nil
}
