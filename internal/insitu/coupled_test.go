package insitu

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"nektarg/internal/checkpoint"
	"nektarg/internal/core"
	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/nektar3d"
)

// buildCoupledMeta wires a small but complete coupled scenario — two coupled
// channel patches, a third periodic patch driving an open DPD region through
// a flux face, and one ΓI interface surface — so every piece kind (continuum
// slab, particle cloud, interface triangulation) flows through the pipeline.
// Mirrors core's restart-scenario wiring so the physics is known-good.
func buildCoupledMeta(t testing.TB) *core.Metasolver {
	t.Helper()

	mkChan := func() *nektar3d.Solver {
		g := must(nektar3d.NewGrid(3, 1, 2, 4, 1.5, 1, 1, false, true, false))(t)
		s := must(nektar3d.NewSolver(g, 0.5, 0.01))(t)
		s.Force = func(_, _, _, _ float64) (float64, float64, float64) { return 1, 0, 0 }
		return s
	}
	prof := func(x, y, z float64) (float64, float64, float64) { return z * (1 - z), 0, 0 }
	bc := func(_, x, y, z float64) (float64, float64, float64) { return prof(x, y, z) }
	sa, sb := mkChan(), mkChan()
	sa.SetInitial(prof)
	sb.SetInitial(prof)
	sa.VelBC = bc
	sb.VelBC = bc
	pa := core.NewContinuumPatch("A", sa, geometry.Vec3{})
	pb := core.NewContinuumPatch("B", sb, geometry.Vec3{X: 1})

	gc := must(nektar3d.NewGrid(2, 2, 2, 3, 1, 1, 1, true, true, true))(t)
	sc := must(nektar3d.NewSolver(gc, 0.1, 0.01))(t)
	sc.SetInitial(func(_, _, _ float64) (float64, float64, float64) { return 0.4, 0, 0 })
	pc := core.NewContinuumPatch("C", sc, geometry.Vec3{X: 10})

	p := dpd.DefaultParams(1)
	p.Seed = 12345
	sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 4, Y: 4, Z: 4}, [3]bool{false, true, true}))(t)
	flux := &dpd.FluxBC{Axis: 0, AtMax: false, Rho: 3}
	sys.Inflows = []*dpd.FluxBC{flux}
	surf := geometry.PlanarRect("gamma1", geometry.Vec3{}, geometry.Vec3{Y: 4}, geometry.Vec3{Z: 4}, 2, 2)
	region := &core.AtomisticRegion{
		Name: "omegaA", Sys: sys,
		Origin:     geometry.Vec3{X: 10.2, Y: 0.2, Z: 0.2},
		NSUnits:    core.Units{L: 1e-3, Nu: 0.1},
		DPDUnits:   core.Units{L: 5e-5, Nu: 0.1},
		Interfaces: []*geometry.Surface{surf},
		FluxFaces:  []*dpd.FluxBC{flux},
	}

	m := core.NewMetasolver()
	m.NSStepsPerExchange = 4
	m.DPDStepsPerNS = 3
	m.Patches = []*core.ContinuumPatch{pa, pb, pc}
	m.Atomistic = []*core.AtomisticRegion{region}
	m.Couplings = []*core.PatchCoupling{
		{Donor: pa, Receiver: pb, Face: "x0"},
		{Donor: pb, Receiver: pa, Face: "x1"},
	}
	return m
}

// TestCoupledConservationUnfaulted drives a real coupled run through the
// in-process pipeline and pins the tentpole laws end to end: exact drop
// accounting (published == delivered + dropped), causally consistent frames
// (no frame mixes step indices, every frame carries the full source set),
// and staleness bounded by the configured stride once the queue drains.
func TestCoupledConservationUnfaulted(t *testing.T) {
	m := buildCoupledMeta(t)
	const stride, exchanges = 2, 6
	cfg := Config{Stride: stride, MaxParticles: 256}
	pub, q := NewPipeline(cfg)
	m.EnableInsitu(pub)

	sources := ExpectedSources(m)
	if len(sources) != 5 { // 3 patches + 1 dpd + 1 interface
		t.Fatalf("expected sources = %v, want 5 entries", sources)
	}

	// Consume with a raw assembler so the test sees every frame, not just
	// the observer's latest.
	type result struct {
		frames   []*Frame
		consumed int64
	}
	done := make(chan result)
	go func() {
		var r result
		asm := NewAssembler(sources, DefaultHorizon)
		for {
			p, ok := q.Take()
			if !ok {
				done <- r
				return
			}
			r.consumed++
			if f := asm.Add(p); f != nil {
				r.frames = append(r.frames, f)
			}
		}
	}()

	if err := m.Advance(exchanges); err != nil {
		t.Fatal(err)
	}
	q.Close()
	r := <-done

	st := q.Stats()
	wantPub := int64(exchanges / stride * len(sources))
	if st.Published != wantPub {
		t.Fatalf("published = %d, want %d", st.Published, wantPub)
	}
	if st.Published != st.Delivered+st.Dropped {
		t.Fatalf("conservation violated: %d != %d + %d", st.Published, st.Delivered, st.Dropped)
	}
	if r.consumed != st.Delivered {
		t.Fatalf("consumer saw %d pieces, queue counted %d delivered", r.consumed, st.Delivered)
	}
	if len(r.frames) == 0 {
		t.Fatal("no frames assembled from a live coupled run")
	}
	lastStep := 0
	for _, f := range r.frames {
		if len(f.Pieces) != len(sources) {
			t.Fatalf("frame %d has %d pieces, want %d", f.Step, len(f.Pieces), len(sources))
		}
		for _, p := range f.Pieces {
			if p.Step != f.Step {
				t.Fatalf("frame %d mixes steps: piece %q carries step %d", f.Step, p.Source, p.Step)
			}
		}
		if f.Step%stride != 0 {
			t.Fatalf("frame at off-stride step %d", f.Step)
		}
		if f.Step <= lastStep {
			t.Fatalf("frame series regressed: %d after %d", f.Step, lastStep)
		}
		lastStep = f.Step
	}
	// With the consumer keeping up, the drained pipeline is fully current:
	// staleness (steps behind the newest published piece) within the stride.
	final := r.frames[len(r.frames)-1]
	if stale := q.Stats().MaxStep - final.Step; stale > stride {
		t.Fatalf("staleness %d steps exceeds stride %d", stale, stride)
	}
}

// TestCoupledConservationFaulted runs the same scenario under the PR-4
// recovery loop with an injected mid-run panic: the exchange replays after
// the checkpoint restore, the replayed step republishes, and the accounting
// law must still hold exactly — the observer path never corrupts recovery
// and recovery never corrupts the drop accounting.
func TestCoupledConservationFaulted(t *testing.T) {
	m := buildCoupledMeta(t)
	const exchanges = 5
	cfg := Config{Stride: 1, MaxParticles: 256}
	pub, q := NewPipeline(cfg)
	m.EnableInsitu(pub)

	obs := NewObserver(ObserverConfig{Sources: ExpectedSources(m)})
	obs.SetStatsSource(q.Stats)
	done := make(chan struct{})
	go func() { defer close(done); obs.Run(q) }()

	ck := &core.Checkpointer{
		Meta:  m,
		Store: &checkpoint.Store{Dir: t.TempDir()},
		Every: 1,
	}
	faulted := false
	err := core.RunWithRecovery(ck, exchanges, core.RecoveryOptions{
		OnExchange: func(ex int) error {
			if ex == 3 && !faulted {
				faulted = true
				panic("injected observer-era fault")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !faulted {
		t.Fatal("fault never fired; test lost its teeth")
	}
	q.Close()
	<-done

	st := q.Stats()
	// Exchange 3 ran twice (faulted then replayed): one extra publish round.
	wantPub := int64((exchanges + 1) * 5)
	if st.Published != wantPub {
		t.Fatalf("published = %d, want %d (replayed exchange republishes)", st.Published, wantPub)
	}
	if st.Published != st.Delivered+st.Dropped {
		t.Fatalf("conservation violated after recovery: %d != %d + %d",
			st.Published, st.Delivered, st.Dropped)
	}
	f := obs.latest // the observer goroutine has returned
	if f == nil || f.Step != exchanges {
		t.Fatalf("latest frame = %+v, want step %d", f, exchanges)
	}
	for _, p := range f.Pieces {
		if p.Step != f.Step {
			t.Fatalf("post-recovery frame mixes steps: %q at %d", p.Source, p.Step)
		}
	}
	if ast := obs.AssemblerStats(); ast.Staleness > 1 {
		t.Fatalf("staleness %d exceeds stride 1 after drain", ast.Staleness)
	}
	if m.Exchanges != exchanges {
		t.Fatalf("metasolver at exchange %d, want %d", m.Exchanges, exchanges)
	}
}

// TestCoupledObserverDiskSeries checks the rolling VTK series against a real
// run: only the newest DefaultKeep steps remain on disk and the latest snapshot
// endpoints serve the final frame.
func TestCoupledObserverDiskSeries(t *testing.T) {
	m := buildCoupledMeta(t)
	pub, q := NewPipeline(Config{Stride: 1, MaxParticles: 128})
	m.EnableInsitu(pub)
	obs := NewObserver(ObserverConfig{Sources: ExpectedSources(m), Dir: t.TempDir()})
	obs.SetStatsSource(q.Stats)
	done := make(chan struct{})
	go func() { defer close(done); obs.Run(q) }()

	const exchanges = DefaultKeep + 2
	if err := m.Advance(exchanges); err != nil {
		t.Fatal(err)
	}
	q.Close()
	<-done

	steps := append([]int(nil), obs.steps...) // the observer goroutine has returned
	sort.Ints(steps)
	if len(steps) != DefaultKeep || steps[0] != exchanges-DefaultKeep+1 || steps[len(steps)-1] != exchanges {
		t.Fatalf("rolling series kept steps %v, want the newest %d of %d", steps, DefaultKeep, exchanges)
	}
	meta, err := obs.SnapshotMeta()
	if err != nil {
		t.Fatal(err)
	}
	if len(meta) == 0 {
		t.Fatal("empty snapshot meta after a live run")
	}
}

// TestInsituNonBlockingStall pins the non-blocking guarantee with a
// deliberately stalled observer: nobody ever drains the queue, so every
// publish beyond the queue's capacity is a drop — and the solver's wall-clock
// per exchange must not inflate materially versus an observer-disabled run.
// Each trial times a fresh scenario without and then with the observer, back
// to back, and the test judges the median of the trials' ratios: a shared
// host's slow or fast spells last milliseconds, so they move both runs of a
// pair, and the median sheds the pairs one spell split.
func TestInsituNonBlockingStall(t *testing.T) {
	const exchanges, trials = 3, 31

	run := func(enable bool) time.Duration {
		m := buildCoupledMeta(t)
		if enable {
			// The queue is never drained: a stalled observer.
			m.EnableInsitu(NewPublisher(Config{Stride: 1, MaxParticles: 256}, NewQueue(1)))
		}
		runtime.GC() // start both runs of a pair with the same heap
		start := time.Now()
		if err := m.Advance(exchanges); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	ratios := make([]float64, trials)
	for i := range ratios {
		base := run(false)
		ratios[i] = float64(run(true)) / float64(base)
	}
	sort.Float64s(ratios)
	ratio := ratios[trials/2]
	t.Logf("median inflation=%.2f%%", 100*(ratio-1))

	// The acceptance bound is <5%; allow modest slack for shared-runner
	// noise at millisecond scales — a blocking publish would inflate by
	// orders of magnitude, not tens of percent.
	if ratio > 1.25 {
		t.Fatalf("stalled observer inflated step time: median stalled/base = %.3f, trials %v", ratio, ratios)
	}

	// And the stall really exercised the drop path.
	m := buildCoupledMeta(t)
	q := NewQueue(1)
	m.EnableInsitu(NewPublisher(Config{Stride: 1}, q))
	if err := m.Advance(exchanges); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Dropped == 0 {
		t.Fatal("stalled cap-1 queue dropped nothing")
	}
	if st.Published != st.Delivered+st.Dropped+st.Queued {
		t.Fatalf("instantaneous conservation violated: %+v", st)
	}
}

// must unwraps a constructor's result, failing the test on its error.
func must[T any](v T, err error) func(testing.TB) T {
	return func(t testing.TB) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}
