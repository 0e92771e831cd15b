package core

import (
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"time"

	"nektarg/internal/audit"
	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/history"
	"nektarg/internal/monitor"
	"nektarg/internal/nektar3d"
	"nektarg/internal/telemetry"
)

// ContinuumPatch is one NεκTαr-3D solver instance placed in the global
// (continuum-unit) frame: the solver's box [0,L]³ sits at Origin.
type ContinuumPatch struct {
	Name   string
	Solver *nektar3d.Solver
	Origin geometry.Vec3
}

// NewContinuumPatch places a solver at origin. Coupled faces receive their
// traces through Solver.ImposeFace; VelBC keeps the physical boundaries.
func NewContinuumPatch(name string, s *nektar3d.Solver, origin geometry.Vec3) *ContinuumPatch {
	return &ContinuumPatch{Name: name, Solver: s, Origin: origin}
}

// GlobalToLocal converts a global point into the patch's solver frame.
func (p *ContinuumPatch) GlobalToLocal(g geometry.Vec3) geometry.Vec3 {
	return g.Sub(p.Origin)
}

// Contains reports whether a global point lies inside the patch box.
func (p *ContinuumPatch) Contains(g geometry.Vec3) bool {
	return p.Solver.G.Contains(p.GlobalToLocal(g))
}

// SampleVelocity samples the patch velocity at a global point.
func (p *ContinuumPatch) SampleVelocity(g geometry.Vec3) (float64, float64, float64) {
	l := p.GlobalToLocal(g)
	return p.Solver.G.SampleVelocity(p.Solver.U, p.Solver.V, p.Solver.W, l)
}

// PatchCoupling imposes, at every exchange, the donor patch's velocity trace
// on one face of the receiver patch — the interface condition of the
// multi-patch decomposition (§3.2). Overlapping patches couple in both
// directions via two PatchCoupling entries.
type PatchCoupling struct {
	Donor    *ContinuumPatch
	Receiver *ContinuumPatch
	Face     string // receiver face: "x0", "x1", "y0", "y1", "z0", "z1"

	// pts are the receiver's face points, made once (facePoints); u, v and
	// w are the trace buffers every exchange reuses, which is safe because
	// ImposeFace copies the values.
	pts     []geometry.Vec3
	u, v, w []float64
}

// facePoints returns the receiver's face points, computing them on first
// use.
func (c *PatchCoupling) facePoints() []geometry.Vec3 {
	if c.pts == nil {
		c.pts = c.Receiver.Solver.G.FacePoints(c.Face)
	}
	return c.pts
}

// apply samples the donor at the receiver's face nodes and imposes the trace
// on the receiver's face.
func (c *PatchCoupling) apply() error {
	pts := c.facePoints()
	if len(c.u) != len(pts) {
		c.u, c.v, c.w = make([]float64, len(pts)), make([]float64, len(pts)), make([]float64, len(pts))
	}
	for i, lp := range pts {
		g := lp.Add(c.Receiver.Origin)
		if err := c.sampleable(g); err != nil {
			return err
		}
		c.u[i], c.v[i], c.w[i] = c.Donor.SampleVelocity(g)
	}
	return c.Receiver.Solver.ImposeFace(c.Face, c.u, c.v, c.w)
}

// CheckFace returns the error apply would return at every exchange, if
// there is one: a face the receiver cannot impose (FaceNodes), or the first
// receiver face node outside the donor.
func (c *PatchCoupling) CheckFace() error {
	if _, err := c.Receiver.Solver.G.FaceNodes(c.Face); err != nil {
		return fmt.Errorf("core: receiver %q: %w", c.Receiver.Name, err)
	}
	for _, lp := range c.facePoints() {
		if err := c.sampleable(lp.Add(c.Receiver.Origin)); err != nil {
			return err
		}
	}
	return nil
}

// sampleable reports a receiver face node g the donor cannot be sampled at.
func (c *PatchCoupling) sampleable(g geometry.Vec3) error {
	if c.Donor.Contains(g) {
		return nil
	}
	return fmt.Errorf("core: receiver %q face %s node %v outside donor %q",
		c.Receiver.Name, c.Face, g, c.Donor.Name)
}

// AtomisticRegion is one DPD-LAMMPS domain ΩA embedded (in the paper, inside
// the aneurysm) in the continuum frame. Its box coordinates are DPD units;
// Origin is the global position of the box's Lo corner in continuum units.
type AtomisticRegion struct {
	Name   string
	Sys    *dpd.System
	Origin geometry.Vec3
	// NSUnits and DPDUnits define the Eq. 1 scaling.
	NSUnits, DPDUnits Units
	// VelocityBoost is an additional scale-up applied on top of Eq. 1.
	// The paper applies the same trick ("the size and velocities imposed
	// at ΓIk have been scaled up") so the mean flow in the atomistic
	// region stands clear of the DPD thermal noise; 0 means 1.
	VelocityBoost float64
	// Interfaces are the coupling surfaces ΓI with their triangulations.
	Interfaces []*geometry.Surface
	// Flux faces paired with the interfaces, receiving the scaled velocity.
	FluxFaces []*dpd.FluxBC
	// FluxScale multiplies the velocity trace at the point of application —
	// after the Eq. 1 scaling, after the audit ledger has recorded what the
	// continuum side sent. 0 means 1 (faithful application). Any other
	// value is a deliberate conservation fault: the flux BC then injects
	// more (or less) momentum than ΓI continuity allows, which the
	// gi.flux audit budget must catch long before the NaN guard does. The
	// fault-injection acceptance test and a config region's fluxScale use it.
	FluxScale float64
}

// DPDToGlobal converts a DPD-frame point into global continuum coordinates.
func (a *AtomisticRegion) DPDToGlobal(p geometry.Vec3) geometry.Vec3 {
	s := LengthScale(a.DPDUnits, a.NSUnits)
	return a.Origin.Add(p.Sub(a.Sys.Lo).Scale(s))
}

// boost returns the effective velocity scale-up (1 when unset).
func (a *AtomisticRegion) boost() float64 {
	if a.VelocityBoost <= 0 {
		return 1
	}
	return a.VelocityBoost
}

// fluxScale returns the FluxScale fault knob's effective value (1 when
// unset: faithful application).
func (a *AtomisticRegion) fluxScale() float64 {
	if a.FluxScale == 0 {
		return 1
	}
	return a.FluxScale
}

// Metasolver advances the coupled system with the staggered time progression
// of Figure 5: per exchange period τ, the continuum patches advance
// NSStepsPerExchange steps and the atomistic regions advance
// DPDStepsPerNS * NSStepsPerExchange steps; interface data moves once per
// period. The paper's choice: Δt_NS = 20 Δt_DPD, τ = 10 Δt_NS = 200 Δt_DPD.
type Metasolver struct {
	Patches   []*ContinuumPatch
	Couplings []*PatchCoupling
	Atomistic []*AtomisticRegion
	// Outlets are the 3D→1D peripheral couplings. Advance steps each one at
	// the end of every exchange period — after the audit, history and
	// in-situ hooks of that period have run.
	Outlets []*OutletTo1D

	// NSStepsPerExchange is τ/Δt_NS (10 in the paper).
	NSStepsPerExchange int
	// DPDStepsPerNS is Δt_NS/Δt_DPD (20 in the paper).
	DPDStepsPerNS int

	Exchanges int

	// rec is the metasolver's own telemetry recorder (track "metasolver");
	// nil until EnableTelemetry is called. See telemetry.go in this package.
	rec *telemetry.Recorder

	// watch is the metasolver's own watchdog bundle (track "metasolver");
	// nil until EnableMonitoring is called. See monitor.go in this package.
	watch *monitor.Watchdogs

	// log is the optional structured logger (SetLogger); nil = quiet.
	log *slog.Logger

	// pub is the in-situ frame publisher (track: live observation); nil until
	// EnableInsitu is called. See insitu.go in this package.
	pub FramePublisher

	// aud is the physics conservation ledger (fed once per exchange); nil
	// until EnableAudit is called. See audit.go in this package.
	aud *audit.Ledger

	// hist is the performance-history plane (sampled once per due
	// exchange); nil until EnableHistory is called. See history.go in this
	// package.
	hist *history.Plane

	// The patch advance Advance reuses every period: the patches the
	// runners were built for, one error slot and one prebuilt runner per
	// patch, and the group they finish on (patchRunners).
	runFor  []*ContinuumPatch
	runErrs []error
	runners []func()
	runWG   sync.WaitGroup
}

// NewMetasolver applies the paper's default time-progression ratios.
func NewMetasolver() *Metasolver {
	return &Metasolver{NSStepsPerExchange: 10, DPDStepsPerNS: 20}
}

// SetParallelism sets the intra-rank worker count on every attached solver:
// each continuum patch's element-tiled operators and each atomistic region's
// force tiling. n == 0 leaves the per-solver defaults (serial SEM operators,
// GOMAXPROCS DPD force workers); n < 0 requests all cores on every solver;
// n >= 1 pins exactly n workers. Per-solver settings made directly on a
// Grid/System are overwritten. The knob changes wall-clock only — solver
// output is bit-identical for every worker count.
func (m *Metasolver) SetParallelism(n int) {
	if n == 0 {
		return
	}
	for _, p := range m.Patches {
		p.Solver.G.Parallel = n
	}
	for _, a := range m.Atomistic {
		a.Sys.Parallel = n
	}
}

// ExchangeInterfaceConditions runs one coupling exchange: patch-to-patch
// traces and continuum-to-atomistic velocity imposition ("the velocity field
// computed by the continuum solver is interpolated onto the predefined
// coordinates and ... transferred to the atomistic solver").
func (m *Metasolver) ExchangeInterfaceConditions() error {
	sp := m.rec.Begin("meta.exchange")
	defer sp.End()
	for _, c := range m.Couplings {
		if err := c.apply(); err != nil {
			return err
		}
	}
	for _, a := range m.Atomistic {
		if err := m.coupleAtomistic(a); err != nil {
			return err
		}
	}
	m.Exchanges++
	return nil
}

// coupleAtomistic samples the owning continuum patches at the interface
// triangle centroids, applies the Eq. 1 velocity scaling and installs the
// result as the DPD flux-face inflow profiles.
func (m *Metasolver) coupleAtomistic(a *AtomisticRegion) error {
	vscale := VelocityScale(a.NSUnits, a.DPDUnits) * a.boost()
	fscale := a.fluxScale()
	var sentMag, defect float64
	var nCentroids int
	for k, surf := range a.Interfaces {
		if k >= len(a.FluxFaces) {
			return fmt.Errorf("core: region %q has %d interfaces but %d flux faces",
				a.Name, len(a.Interfaces), len(a.FluxFaces))
		}
		centroids := surf.Centroids()
		vels := make([]geometry.Vec3, len(centroids))
		for i, c := range centroids {
			g := a.DPDToGlobal(c)
			owner := m.ownerOf(g)
			if owner == nil {
				return fmt.Errorf("core: interface %q centroid %v owned by no patch", surf.Name, g)
			}
			u, v, w := owner.SampleVelocity(g)
			sent := geometry.Vec3{X: u, Y: v, Z: w}.Scale(vscale)
			applied := sent.Scale(fscale)
			sentMag += sent.Norm()
			defect += applied.Sub(sent).Norm()
			vels[i] = applied
		}
		nCentroids += len(centroids)
		installFluxProfile(a.FluxFaces[k], surf, centroids, vels)
	}
	m.auditGammaI(a, sentMag, defect, nCentroids)
	return nil
}

// installFluxProfile sets the flux face's velocity function to the
// nearest-centroid interpolant of the sampled trace.
func installFluxProfile(f *dpd.FluxBC, surf *geometry.Surface, centroids []geometry.Vec3, vels []geometry.Vec3) {
	pts := append([]geometry.Vec3(nil), centroids...)
	vv := append([]geometry.Vec3(nil), vels...)
	f.Vel = func(pos geometry.Vec3) geometry.Vec3 {
		best := 0
		bd := pos.Sub(pts[0]).Norm2()
		for i := 1; i < len(pts); i++ {
			if d := pos.Sub(pts[i]).Norm2(); d < bd {
				bd, best = d, i
			}
		}
		return vv[best]
	}
}

// CheckInterfaces refuses a region with an interface centroid no patch owns,
// which the first exchange would otherwise meet.
func (m *Metasolver) CheckInterfaces(a *AtomisticRegion) error {
	for _, surf := range a.Interfaces {
		for _, c := range surf.Centroids() {
			if g := a.DPDToGlobal(c); m.ownerOf(g) == nil {
				return fmt.Errorf("core: interface %q centroid %v owned by no patch", surf.Name, g)
			}
		}
	}
	return nil
}

// ownerOf implements the discovery rule of §3.3 steps 2-3 serially: the
// first patch containing the point owns it. (The message-passing version of
// the handshake lives in discovery.go.)
func (m *Metasolver) ownerOf(g geometry.Vec3) *ContinuumPatch {
	for _, p := range m.Patches {
		if p.Contains(g) {
			return p
		}
	}
	return nil
}

// Advance runs n exchange periods: each period exchanges interface data,
// advances all patches (concurrently) and all atomistic regions, then lets
// every registered outlet's 1D network catch up to its patch.
func (m *Metasolver) Advance(n int) error {
	if m.NSStepsPerExchange < 1 || m.DPDStepsPerNS < 1 {
		return fmt.Errorf("core: bad time progression %d/%d", m.NSStepsPerExchange, m.DPDStepsPerNS)
	}
	for e := 0; e < n; e++ {
		// The history plane samples the wall time of each due exchange;
		// timing is gated on the plane so the disabled path never touches
		// the clock.
		var histT0 time.Time
		if m.hist != nil {
			histT0 = time.Now()
		}
		step := m.rec.Begin("meta.step")
		if err := m.ExchangeInterfaceConditions(); err != nil {
			step.End()
			m.watch.Event(monitor.SevCritical, "exchange",
				fmt.Sprintf("interface exchange %d failed: %v", m.Exchanges+1, err), float64(m.Exchanges))
			return err
		}
		// Continuum patches advance concurrently: "the solution is computed
		// in parallel in each patch".
		adv := m.rec.Begin("meta.advance")
		m.patchRunners()
		clear(m.runErrs)
		m.runWG.Add(len(m.runners))
		for _, run := range m.runners {
			go run()
		}
		at := m.rec.Begin("meta.atomistic")
		regionErr := m.advanceRegions()
		at.End()
		wait := m.rec.Begin("meta.wait")
		m.runWG.Wait()
		wait.End()
		adv.End()
		step.End()
		for i, err := range m.runErrs {
			if err != nil {
				if m.log != nil {
					m.log.Error("patch step failed", "patch", m.runFor[i].Name, "err", err.Error())
				}
				return fmt.Errorf("core: patch %q: %w", m.runFor[i].Name, err)
			}
		}
		if regionErr != nil {
			if m.log != nil {
				m.log.Error("region step failed", "err", regionErr.Error())
			}
			return regionErr
		}
		m.auditExchange()
		if m.hist != nil {
			m.sampleHistory(time.Since(histT0))
		}
		m.publishInsitu()
		if m.log != nil {
			var t float64
			if len(m.Patches) > 0 {
				t = m.Patches[0].Solver.Time
			}
			m.log.Debug("exchange period complete",
				"exchange", m.Exchanges, "t_ns", t,
				"patches", len(m.Patches), "regions", len(m.Atomistic))
		}
		for _, o := range m.Outlets {
			if _, _, err := o.Exchange(OutletDt1D); err != nil {
				return fmt.Errorf("core: outlet %s, exchange %d: %w", o.Name(), m.Exchanges, err)
			}
		}
	}
	return nil
}

// patchRunners builds one runner per patch, each advancing its patch by
// NSStepsPerExchange steps into its error slot, unless they exist for the
// current Patches. A panicking patch (numerical blow-up, injected fault)
// must surface as its exchange's error, not kill the process: the
// recover-and-resume loop depends on Advance returning so it can reload the
// last good checkpoint.
func (m *Metasolver) patchRunners() {
	if slices.Equal(m.runFor, m.Patches) {
		return
	}
	m.runFor = slices.Clone(m.Patches)
	m.runErrs = make([]error, len(m.runFor))
	m.runners = make([]func(), len(m.runFor))
	for i, p := range m.runFor {
		m.runners[i] = func() {
			defer m.runWG.Done()
			defer func() {
				if r := recover(); r != nil {
					m.runErrs[i] = fmt.Errorf("core: patch %q panicked: %v", p.Name, r)
				}
			}()
			m.runErrs[i] = p.Solver.Run(m.NSStepsPerExchange)
		}
	}
}

// advanceRegions advances every atomistic region on the caller goroutine,
// beside the patch runners. A region that panics re-panics only once the
// runners have finished: the next period reuses their error slots and wait
// group, and a recovering caller reloads the state they write.
func (m *Metasolver) advanceRegions() (err error) {
	defer func() {
		if r := recover(); r != nil {
			m.runWG.Wait()
			panic(r)
		}
	}()
	for _, a := range m.Atomistic {
		if rerr := a.Sys.Run(m.NSStepsPerExchange * m.DPDStepsPerNS); rerr != nil && err == nil {
			err = fmt.Errorf("core: region %q: %w", a.Name, rerr)
		}
	}
	return err
}

// InterfaceContinuity measures the Figure 9 diagnostic for one atomistic
// region: for each interface surface, the RMS difference between the
// continuum velocity (scaled to DPD units) and the near-interface DPD
// velocity sampled within `radius` of each triangle centroid. Centroids with
// no particles nearby are skipped; the returned count says how many
// contributed.
func (m *Metasolver) InterfaceContinuity(a *AtomisticRegion, radius float64) (rms float64, count int) {
	vscale := VelocityScale(a.NSUnits, a.DPDUnits) * a.boost()
	var sum float64
	for _, surf := range a.Interfaces {
		for _, c := range surf.Centroids() {
			g := a.DPDToGlobal(c)
			owner := m.ownerOf(g)
			if owner == nil {
				continue
			}
			u, v, w := owner.SampleVelocity(g)
			want := geometry.Vec3{X: u, Y: v, Z: w}.Scale(vscale)
			got, n := a.Sys.SampleVelocityAt(c, radius)
			if n < 5 {
				continue
			}
			d := got.Sub(want)
			sum += d.Norm2()
			count++
		}
	}
	if count == 0 {
		return 0, 0
	}
	return math.Sqrt(sum / float64(count)), count
}
