package dpd

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"

	"nektarg/internal/geometry"
	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
	"nektarg/internal/work"
)

// Particle is one DPD particle. Mass is 1 in DPD units.
type Particle struct {
	Pos, Vel, F geometry.Vec3
	Species     int
	ID          int64
	// Frozen particles (wall material) exert forces but do not move.
	Frozen bool
}

// BondedForce adds intra-molecule forces (springs, bending, area/volume
// constraints); RBC membranes and platelet adhesion plug in through it.
type BondedForce interface {
	// AddForces accumulates forces into sys.Particles[i].F.
	AddForces(sys *System)
}

// StatefulBonded is a BondedForce whose forces depend on history a resumed
// run cannot recompute from the particles (platelet activation clocks).
// System.CaptureState stores each one's encoding in State.Bonded and
// ApplyState hands it back to the re-attached model. Equal model states must
// encode to equal bytes.
type StatefulBonded interface {
	BondedForce
	CaptureState() []byte
	ApplyState([]byte) error
}

// ExternalForce supplies a per-particle body force (e.g. the time-periodic
// pipe driving force of Figure 8).
type ExternalForce func(t float64, p *Particle) geometry.Vec3

// Wall imposes no-slip solid boundaries; see boundaries.go.
type Wall interface {
	// Distance returns the signed distance from pos to the wall surface,
	// positive on the fluid side.
	Distance(pos geometry.Vec3) float64
	// Normal returns the inward (into-fluid) unit normal at the closest
	// surface point.
	Normal(pos geometry.Vec3) geometry.Vec3
	// Velocity returns the wall velocity at the closest surface point.
	Velocity(pos geometry.Vec3) geometry.Vec3
}

// System is one DPD domain ΩA.
type System struct {
	Params
	Lo, Hi   geometry.Vec3
	Periodic [3]bool

	Particles []Particle

	Bonded   []BondedForce
	External ExternalForce
	Walls    []Wall
	Inflows  []*FluxBC

	Step int
	Time float64

	// Inserted and Deleted count cumulative open-boundary particle
	// insertions and deletions (FluxBC inflow/outflow management). VVStep
	// reports the per-step deltas as telemetry gauges when Rec is set.
	Inserted, Deleted int64

	// Rec is the optional per-rank telemetry recorder; nil (the default)
	// disables instrumentation at nil-receiver no-op cost.
	Rec *telemetry.Recorder

	// Watch is the optional solver watchdog bundle: VVStep feeds it the
	// particle count (open-boundary drift detection) and scans particle
	// state for NaN/Inf, producing structured health events instead of
	// silently corrupting the ensemble. Nil disables all probes.
	Watch *monitor.Watchdogs

	nextID int64

	// rngSrc/rng drive all stream-based randomness (FillRandom, flux-BC
	// insertions). The source is a PCG whose full position serializes into
	// dpd.State, so a restored open (flux-BC) system replays the exact
	// insertion stream an uninterrupted run would have drawn — the
	// checkpoint/restart determinism contract. Pairwise random *forces* are
	// counter-based (see pairXiKeyed) and carry no stream state at all.
	rngSrc *rand.PCG
	rng    *rand.Rand

	// pendingFaceAcc holds flux-face fractional-insertion accumulators
	// restored from a checkpoint before the caller has re-attached its
	// FluxBC hooks; AttachInflows consumes it.
	pendingFaceAcc []float64

	// Cell-sorted particle order, rebuilt by buildCells on every force
	// evaluation: cell c owns slots cstart[c]..cstart[c+1], sidx maps a slot
	// to its particle index (descending within a cell — the order a
	// push-front linked list would walk), and px/py/pz mirror the positions
	// in slot order so the pair sweep's distance test streams contiguous
	// memory instead of chasing 96-byte Particles. short marks periodic axes
	// too short for three cells, which are one cell whose images fold per pair.
	ncell      [3]int
	cellLen    [3]float64
	boxLen     [3]float64
	short      [3]bool
	cstart     []int32
	sidx       []int32
	pcell      []int32
	px, py, pz []float64

	// Force-evaluation scratch (arena contract, DESIGN.md §14): reused every
	// step, sized with cap(Particles) so it reallocates only when Particles
	// does, and deliberately absent from dpd.State — CaptureState serializes
	// named simulation state only, so scratch reuse can never leak across a
	// checkpoint round-trip (pinned by TestCaptureStateExcludesScratch).
	// Each TILE (fixed count, see forceTiles) accumulates the forces on its
	// own z-strip straight into Particles[i].F and those on the one z-layer
	// above it into its slice of halo, merged afterwards; at most two tiles
	// touch a particle and a two-term sum is order-free, so the result is
	// bit-identical for every worker count including 1.
	tiles    []forceTile
	rows     []gatherRow // per-tile gather scratch, see forcesInTile
	halo     []geometry.Vec3
	fOld     []geometry.Vec3 // velocity-Verlet old-force term, λ ≠ 1/2 only
	nearFace []int32         // addOpenFaceForces: particles within rc of a flux face
	faceCtrl []faceControl   // addOpenFaceForces per-face controller state
	pool     work.Pool
	forceFn  func(int) // prebuilt worker closure (rebuilt when forceNW changes)
	forceNW  int

	// forceTiles is the force-accumulation tile count (clamped to the z-cell
	// count). 0 means "capture GOMAXPROCS at first use" — exactly the strip
	// layout the pre-arena implementation used by default, so trajectories
	// replay the historical bits on any given machine. Once captured it
	// never changes, and it is deliberately independent of Parallel: the
	// floating-point merge grouping is set by the tiling alone, so every
	// worker count reproduces the same forces bit for bit. Tests override it
	// to exercise multi-tile merging regardless of host core count.
	forceTiles int

	// Parallel controls the number of force-evaluation workers; 0 means
	// GOMAXPROCS. The worker count affects wall-clock only, never the bits.
	Parallel int
}

// forceTile is a z-strip of cells owning its pair interactions: every cell
// pair whose home cell lies in layers [z0, z1). The neighbour of such a pair
// sits in the strip or in the one layer above it; when that layer belongs to
// another tile its slots [haloLo, haloHi) accumulate into
// halo[haloOff : haloOff+haloHi-haloLo] instead of Particles.
type forceTile struct {
	z0, z1         int
	haloLo, haloHi int32
	haloOff        int
}

// NewSystem builds an empty domain.
func NewSystem(p Params, lo, hi geometry.Vec3, periodic [3]bool) *System {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	size := hi.Sub(lo)
	if size.X <= 0 || size.Y <= 0 || size.Z <= 0 {
		panic(fmt.Sprintf("dpd: empty box %v..%v", lo, hi))
	}
	src := rand.NewPCG(p.Seed, rngStreamSalt)
	return &System{
		Params: p, Lo: lo, Hi: hi, Periodic: periodic,
		rngSrc: src, rng: rand.New(src),
	}
}

// rngStreamSalt is the fixed second PCG seed word: it separates the
// stream-based RNG (insertions, initial conditions) from the counter-based
// pairwise force hash, which consumes Params.Seed directly.
const rngStreamSalt = 0x6e656b746172672d // "nektarg-"

// AttachInflows installs the flux-BC faces on the system. After a
// RestoreState the faces additionally receive the checkpointed
// fractional-insertion accumulators (in face order), so a restored open
// system inserts particles exactly where the uninterrupted run would have.
func (s *System) AttachInflows(faces ...*FluxBC) error {
	s.Inflows = append([]*FluxBC(nil), faces...)
	return s.consumePendingFaceAcc()
}

// consumePendingFaceAcc moves checkpointed accumulators onto the attached
// faces; a count mismatch is a wiring error.
func (s *System) consumePendingFaceAcc() error {
	if s.pendingFaceAcc == nil {
		return nil
	}
	if len(s.pendingFaceAcc) != len(s.Inflows) {
		return fmt.Errorf("dpd: checkpoint carries %d flux-face accumulators but %d faces are attached",
			len(s.pendingFaceAcc), len(s.Inflows))
	}
	for i, f := range s.Inflows {
		f.Acc = s.pendingFaceAcc[i]
	}
	s.pendingFaceAcc = nil
	return nil
}

// Size returns the box edge lengths.
func (s *System) Size() geometry.Vec3 { return s.Hi.Sub(s.Lo) }

// Volume returns the box volume.
func (s *System) Volume() float64 {
	sz := s.Size()
	return sz.X * sz.Y * sz.Z
}

// AddParticle appends a particle and returns its index.
func (s *System) AddParticle(pos, vel geometry.Vec3, species int, frozen bool) int {
	if species < 0 || species >= len(s.A) {
		panic(fmt.Sprintf("dpd: species %d of %d", species, len(s.A)))
	}
	s.Particles = append(s.Particles, Particle{
		Pos: pos, Vel: vel, Species: species, ID: s.nextID, Frozen: frozen,
	})
	s.nextID++
	return len(s.Particles) - 1
}

// FillRandom populates the box with n fluid particles of the given species at
// rest plus Maxwellian velocities for temperature kBT.
func (s *System) FillRandom(n, species int) {
	sz := s.Size()
	sd := math.Sqrt(s.KBT)
	for i := 0; i < n; i++ {
		pos := geometry.Vec3{
			X: s.Lo.X + s.rng.Float64()*sz.X,
			Y: s.Lo.Y + s.rng.Float64()*sz.Y,
			Z: s.Lo.Z + s.rng.Float64()*sz.Z,
		}
		vel := geometry.Vec3{
			X: s.rng.NormFloat64() * sd,
			Y: s.rng.NormFloat64() * sd,
			Z: s.rng.NormFloat64() * sd,
		}
		s.AddParticle(pos, vel, species, false)
	}
}

// minimumImage returns the displacement a-b under periodic wrapping.
func (s *System) minimumImage(a, b geometry.Vec3) geometry.Vec3 {
	d := a.Sub(b)
	sz := s.Size()
	if s.Periodic[0] {
		d.X -= sz.X * math.Round(d.X/sz.X)
	}
	if s.Periodic[1] {
		d.Y -= sz.Y * math.Round(d.Y/sz.Y)
	}
	if s.Periodic[2] {
		d.Z -= sz.Z * math.Round(d.Z/sz.Z)
	}
	return d
}

// ComputeForces evaluates all forces into Particles[i].F. Pairwise forces
// are computed in parallel over a FIXED tiling of cell z-strips and
// counter-based random numbers; because neither the tiling nor the merge
// depends on the worker count, the forces are bit-identical for every
// Parallel setting. Steady-state calls reuse all scratch and allocate
// nothing.
func (s *System) ComputeForces() {
	sp := s.Rec.Begin("dpd.forces")
	defer sp.End()
	s.pairForces()

	// Bonded, wall and external forces (serial; cheap relative to pairs).
	for _, b := range s.Bonded {
		b.AddForces(s)
	}
	s.addWallForces()
	s.addOpenFaceForces()
	if s.External != nil {
		for i := range s.Particles {
			if !s.Particles[i].Frozen {
				s.Particles[i].F = s.Particles[i].F.Add(s.External(s.Time, &s.Particles[i]))
			}
		}
	}
}

// pairForces overwrites Particles[i].F with the pairwise DPD forces.
func (s *System) pairForces() {
	for i := range s.Particles {
		s.Particles[i].F = geometry.Vec3{}
	}
	s.buildCells()
	s.layoutTiles()

	nw := min(s.workers(), len(s.tiles))
	if nw > 1 {
		if s.forceFn == nil || s.forceNW != nw {
			s.forceNW = nw
			s.forceFn = func(w int) {
				for t := w; t < len(s.tiles); t += s.forceNW {
					s.forcesInTile(&s.tiles[t], &s.rows[t])
				}
			}
		}
		s.pool.Run(nw, s.forceFn)
	} else {
		for t := range s.tiles {
			s.forcesInTile(&s.tiles[t], &s.rows[t])
		}
	}
	// Merge the halos: own strip first (already in F), then the one other
	// tile that reached the particle.
	for t := range s.tiles {
		tile := &s.tiles[t]
		halo := s.halo[tile.haloOff:]
		for k := tile.haloLo; k < tile.haloHi; k++ {
			p := &s.Particles[s.sidx[k]]
			p.F = p.F.Add(halo[k-tile.haloLo])
		}
	}
}

// layoutTiles cuts the cell grid into the fixed z-strips and carves each
// tile's halo out of the shared arena. The layout depends on the cell grid
// and the captured forceTiles count, never on the worker count.
func (s *System) layoutTiles() {
	if s.forceTiles <= 0 {
		s.forceTiles = runtime.GOMAXPROCS(0)
	}
	ncz := s.ncell[2]
	nt := max(min(s.forceTiles, ncz), 1)
	per := (ncz + nt - 1) / nt
	layer := s.ncell[0] * s.ncell[1]
	s.tiles = s.tiles[:0]
	need := 0
	for z := 0; z < ncz; z += per {
		tile := forceTile{z0: z, z1: min(z+per, ncz)}
		// The layer above the strip, wrapped; a single tile owns it anyway.
		if hz := tile.z1 % ncz; tile.z1-tile.z0 < ncz && (tile.z1 < ncz || s.Periodic[2]) {
			tile.haloLo, tile.haloHi = s.cstart[hz*layer], s.cstart[(hz+1)*layer]
			tile.haloOff = need
			need += int(tile.haloHi - tile.haloLo)
		}
		s.tiles = append(s.tiles, tile)
	}
	// Layer populations fluctuate from step to step: half again as much
	// room keeps the arena from being reallocated at every record high.
	s.halo = grow(s.halo, need, need+need/2)
	clear(s.halo)
	if len(s.rows) < len(s.tiles) {
		s.rows = append(s.rows, make([]gatherRow, len(s.tiles)-len(s.rows))...)
	}
}

// workers resolves the Parallel knob: 0 (the default) means GOMAXPROCS.
func (s *System) workers() int {
	nw := s.Parallel
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw < 1 {
		nw = 1
	}
	return nw
}

// forcesInTile accumulates the Groot-Warren pair forces of every cell pair
// homed in the tile, a row of home cells at a time, in three phases. GATHER
// (gatherRow.gather) lays the row's half-shell neighbourhood out contiguously.
// FILTER runs the cutoff test of one home particle over its two candidate
// ranges without a branch, keeping only the indices of the few inside.
// FORCE touches Particles (velocity, id, species, force) for those alone.
func (s *System) forcesInTile(t *forceTile, row *gatherRow) {
	invRc := 1 / s.Rc
	gamma := s.Gamma
	sigma := math.Sqrt(2*s.Gamma*s.KBT) / math.Sqrt(s.Dt)
	stepKey := s.Seed ^ splitmix64(uint64(s.Step))
	sidx, parts := s.sidx, s.Particles
	halo, haloLo, haloN := s.halo[t.haloOff:], t.haloLo, uint32(t.haloHi-t.haloLo)
	short := s.short[0] || s.short[1] || s.short[2]
	ncx, ncy := s.ncell[0], s.ncell[1]

	// A quarter more than the row holds when Particles is full: like the
	// other scratch it follows cap(Particles), and only a cluster denser
	// than that grows it mid-sweep.
	need := (len(rowShell)*(ncx+2) - 1) * cap(parts) / (len(s.cstart) - 1)
	row.grow(need + need/4 + 32)
	for cz := t.z0; cz < t.z1; cz++ {
		for cy := 0; cy < ncy; cy++ {
			if home := ncx * (cy + ncy*cz); s.cstart[home] == s.cstart[home+ncx] {
				continue
			}
			row.gather(s, cy, cz)
			gx, gy, gz, slot, hit := row.x[:row.n], row.y[:row.n], row.z[:row.n], row.slot[:row.n], row.hit[:row.n]
			for cx := 0; cx < ncx; cx++ {
				ownEnd := int(row.own[cx+2])
				col0, col1 := int(row.col[cx]), int(row.col[cx+3])
				for a := int(row.own[cx]); a < int(row.own[cx+1]); a++ {
					xi, yi, zi := gx[a], gy[a], gz[a]
					nhit := s.filter(row, a, a+1, ownEnd, 0)
					nhit = s.filter(row, a, col0, col1, nhit)
					if nhit == 0 {
						continue
					}
					pi := &parts[sidx[slot[a]]]
					ai := s.A[pi.Species]
					fi := pi.F
					for _, k := range hit[:nhit] {
						dx, dy, dz := xi-gx[k], yi-gy[k], zi-gz[k]
						if short {
							dx, dy, dz = s.foldShort(dx, dy, dz)
						}
						r2 := dx*dx + dy*dy + dz*dz
						sj := slot[k]
						pj := &parts[sidx[sj]]
						if r2 == 0 || pi.Frozen && pj.Frozen {
							continue
						}
						// One division per pair: with u = 1/r and w = 1 - r/rc,
						// (a w - γ w² r̂·v + σ w ξ/√dt) r̂ = (a - γ w u d·v + σξ/√dt) w u d.
						r := math.Sqrt(r2)
						wu := (1 - r*invRc) / r
						vx, vy, vz := pi.Vel.X-pj.Vel.X, pi.Vel.Y-pj.Vel.Y, pi.Vel.Z-pj.Vel.Z
						fd := -gamma * wu * (dx*vx + dy*vy + dz*vz)
						fr := sigma * pairXiKeyed(stepKey, pi.ID, pj.ID)
						f := (ai[pj.Species] + fd + fr) * wu
						fx, fy, fz := f*dx, f*dy, f*dz
						fi.X, fi.Y, fi.Z = fi.X+fx, fi.Y+fy, fi.Z+fz
						// Slots of the layer above the strip are another tile's.
						fj := &pj.F
						if h := uint32(sj - haloLo); h < haloN {
							fj = &halo[h]
						}
						fj.X, fj.Y, fj.Z = fj.X-fx, fj.Y-fy, fj.Z-fz
					}
					pi.F = fi
				}
			}
		}
	}
}

// filter appends to row.hit[n:] the entries of row[k0:k1] within the cutoff of
// entry a and returns the new count. The store is unconditional and the count
// advances by the comparison's result, so the loop carries no branch on the
// ~86 % of candidates that fail.
func (s *System) filter(row *gatherRow, a, k0, k1, n int) int {
	rc2 := s.Rc * s.Rc
	short := s.short[0] || s.short[1] || s.short[2]
	gx, gy, gz, hit := row.x[:k1], row.y[:k1], row.z[:k1], row.hit
	xi, yi, zi := gx[a], gy[a], gz[a]
	for k := k0; k < k1; k++ {
		dx, dy, dz := xi-gx[k], yi-gy[k], zi-gz[k]
		if short {
			dx, dy, dz = s.foldShort(dx, dy, dz)
		}
		hit[n] = int32(k)
		if dx*dx+dy*dy+dz*dz < rc2 {
			n++
		}
	}
	return n
}

// VVStep advances one modified velocity-Verlet step (Groot-Warren λ scheme):
//
//	v~ = v + λ dt f/m;  x += dt v + dt²f/2;  recompute f(x, v~);
//	v += dt (f_old + f_new)/2
//
// For simplicity and robustness we use the common DPD-VV variant: predict
// velocities, move, recompute forces, correct velocities.
func (s *System) VVStep() {
	sp := s.Rec.Begin("dpd.step")
	defer sp.End()
	ins0, del0 := s.Inserted, s.Deleted

	dt := s.Dt
	if s.Step == 0 {
		s.ComputeForces()
	}
	// Predict.
	for i := range s.Particles {
		p := &s.Particles[i]
		if p.Frozen {
			continue
		}
		p.Vel = p.Vel.Add(p.F.Scale(s.Lambda * dt))
		p.Pos = p.Pos.Add(p.Vel.Scale(dt))
	}
	s.applyBoundaries()
	s.Step++
	s.Time += dt
	// v = v_pred + dt (f_new + (1-2λ) f_old)/2: at Groot-Warren's λ = 1/2 the
	// old force drops out, and is neither kept nor added.
	wOld := dt * (1 - 2*s.Lambda) / 2
	if wOld != 0 {
		s.fOld = grow(s.fOld, len(s.Particles), cap(s.Particles))
		for i := range s.Particles {
			s.fOld[i] = s.Particles[i].F.Scale(wOld)
		}
	}
	s.ComputeForces()
	for i := range s.Particles {
		p := &s.Particles[i]
		if p.Frozen {
			continue
		}
		p.Vel = p.Vel.Add(p.F.Scale(dt / 2))
		if wOld != 0 {
			p.Vel = p.Vel.Add(s.fOld[i])
		}
	}
	// Inflow/outflow particle management runs after the move.
	for _, f := range s.Inflows {
		f.apply(s)
	}

	s.Rec.Gauge("dpd.particles", float64(len(s.Particles)))
	s.Rec.Gauge("dpd.inserted", float64(s.Inserted-ins0))
	s.Rec.Gauge("dpd.deleted", float64(s.Deleted-del0))
	s.Rec.Gauge("dpd.parallel", float64(s.workers()))

	if s.Watch != nil {
		s.Watch.ObserveParticles(len(s.Particles))
		s.guardParticles()
	}
}

// guardParticles scans particle positions and velocities for NaN/Inf,
// reporting the first corrupted particle as a critical nan-guard event
// (latched: a wedged ensemble trips once, not once per step). Only called
// when the watchdog bundle is attached.
func (s *System) guardParticles() {
	for i := range s.Particles {
		p := &s.Particles[i]
		for _, v := range [...]float64{p.Pos.X, p.Pos.Y, p.Pos.Z, p.Vel.X, p.Vel.Y, p.Vel.Z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				s.Watch.GuardValue("dpd.step", "particle", v, i) //nolint:errcheck // event recorded; VVStep has no error path
				return
			}
		}
	}
}

// Run advances n steps.
func (s *System) Run(n int) {
	for i := 0; i < n; i++ {
		s.VVStep()
	}
}

// TotalMomentum sums m v over mobile particles.
func (s *System) TotalMomentum() geometry.Vec3 {
	var p geometry.Vec3
	for i := range s.Particles {
		if !s.Particles[i].Frozen {
			p = p.Add(s.Particles[i].Vel)
		}
	}
	return p
}

// Temperature returns the instantaneous kinetic temperature
// <m v²>/3 over mobile particles, relative to the local mean velocity of the
// whole system (assumes no macroscopic flow; use binned measurements in
// flowing systems).
func (s *System) Temperature() float64 {
	var n int
	var mean geometry.Vec3
	for i := range s.Particles {
		if !s.Particles[i].Frozen {
			mean = mean.Add(s.Particles[i].Vel)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	mean = mean.Scale(1 / float64(n))
	var ke float64
	for i := range s.Particles {
		if !s.Particles[i].Frozen {
			ke += s.Particles[i].Vel.Sub(mean).Norm2()
		}
	}
	return ke / (3 * float64(n))
}

// MobileCount returns the number of non-frozen particles — the population
// TotalMomentum and Temperature average over.
func (s *System) MobileCount() int {
	var n int
	for i := range s.Particles {
		if !s.Particles[i].Frozen {
			n++
		}
	}
	return n
}

// NumberDensity returns N/V over mobile particles.
func (s *System) NumberDensity() float64 {
	var n int
	for i := range s.Particles {
		if !s.Particles[i].Frozen {
			n++
		}
	}
	return float64(n) / s.Volume()
}
