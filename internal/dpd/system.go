package dpd

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"unsafe"

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

	// err is the first fault a step could not carry out (a runaway flux
	// face, FluxBC.apply); it stays until ApplyState restores a state.
	err error

	// rngSrc/rng drive all stream-based randomness (FillRandom, flux-BC
	// insertions). The source is a PCG whose full position serializes into
	// dpd.State, so a restored open (flux-BC) system replays the exact
	// insertion stream an uninterrupted run would have drawn — the
	// checkpoint/restart determinism contract. Pairwise random *forces* are
	// counter-based (see pairXiKeyed) and carry no stream state at all.
	rngSrc *rand.PCG
	rng    *rand.Rand

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
	// Worker t's TILE accumulates the forces on its own z-strip straight into
	// Particles[i].F and those on the one z-layer above it into its slice of
	// halo, added in afterwards. Pair-force components are rounded to
	// multiples of 2⁻⁴⁰ (exactQ), so every sum is exact and the forces are the
	// same bits under any tiling and any merge order.
	tiles    []forceTile
	rows     []gatherRow // per-tile gather scratch, see forcesInTile
	halo     []geometry.Vec3
	fOld     []geometry.Vec3 // velocity-Verlet old-force term, λ ≠ 1/2 only
	nearFace []int32         // addOpenFaceForces: particles within rc of a flux face
	faceCtrl []faceControl   // addOpenFaceForces per-face controller state
	pool     work.Pool
	forceFn  func(int) // prebuilt worker closure: worker t sweeps tile t

	// Parallel sets the number of force-evaluation workers, one z-strip tile
	// each; 0 means GOMAXPROCS. The pair sums are exact, so the worker count
	// and the host's core count affect wall-clock only, never the bits.
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

// NewSystem builds an empty domain. It returns Params.Validate's error, or
// one naming the box when hi does not exceed lo on every axis.
func NewSystem(p Params, lo, hi geometry.Vec3, periodic [3]bool) (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if size := hi.Sub(lo); !(size.X > 0 && size.Y > 0 && size.Z > 0) {
		return nil, fmt.Errorf("box %v: must be positive", size)
	}
	src := rand.NewPCG(p.Seed, rngStreamSalt)
	return &System{
		Params: p, Lo: lo, Hi: hi, Periodic: periodic,
		rngSrc: src, rng: rand.New(src),
	}, nil
}

// rngStreamSalt is the fixed second PCG seed word: it separates the
// stream-based RNG (insertions, initial conditions) from the counter-based
// pairwise force hash, which consumes Params.Seed directly.
const rngStreamSalt = 0x6e656b746172672d // "nektarg-"

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
			X: s.Lo.X + float64(s.rng.Float64()*sz.X),
			Y: s.Lo.Y + float64(s.rng.Float64()*sz.Y),
			Z: s.Lo.Z + float64(s.rng.Float64()*sz.Z),
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
		d.X -= float64(sz.X * math.Round(d.X/sz.X))
	}
	if s.Periodic[1] {
		d.Y -= float64(sz.Y * math.Round(d.Y/sz.Y))
	}
	if s.Periodic[2] {
		d.Z -= float64(sz.Z * math.Round(d.Z/sz.Z))
	}
	return d
}

// ComputeForces evaluates all forces into Particles[i].F. Pairwise forces
// are computed in parallel over cell z-strips with counter-based random
// numbers and exact sums, so they are bit-identical for every Parallel
// setting and core count on one architecture. Steady-state calls reuse all
// scratch and allocate nothing.
func (s *System) ComputeForces() {
	sp := s.Rec.Begin("dpd.forces")
	defer sp.End()
	s.pairForces()

	// Bonded, wall and external forces (serial; cheap relative to pairs).
	for _, b := range s.Bonded {
		b.AddForces(s)
	}
	if len(s.Walls) > 0 || len(s.Inflows) > 0 {
		rho := s.targetDensity()
		s.addWallForces(rho)
		s.addOpenFaceForces(rho)
	}
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
	if s.forceFn == nil {
		s.forceFn = func(t int) { s.forcesInTile(&s.tiles[t], &s.rows[t]) }
	}
	s.pool.Run(len(s.tiles), s.forceFn)
	// Add in the halos; the sums are exact, so the order is free.
	for t := range s.tiles {
		tile := &s.tiles[t]
		halo := s.halo[tile.haloOff:]
		for k := tile.haloLo; k < tile.haloHi; k++ {
			p := &s.Particles[s.sidx[k]]
			p.F = p.F.Add(halo[k-tile.haloLo])
		}
	}
}

// layoutTiles cuts the cell grid into one z-strip per worker (at most one
// per z-layer) and carves each tile's halo out of the shared arena.
func (s *System) layoutTiles() {
	ncz := s.ncell[2]
	nt := min(s.workers(), ncz)
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

// exactQ rounds a pair-force component x to a multiple of 2⁻⁴⁰: for
// |x| < 2¹¹, x + exactQ lies in [2¹², 2¹³), where float64 values are 2⁻⁴⁰
// apart, and subtracting exactQ again is exact. Sums of such multiples are
// exact while they stay below 2¹³, so a particle's pair forces add up to the
// same bits in any order. DPD pair forces, bounded by a + γ|v_ij| + σ√3/√dt,
// stay far inside that range (TestPairSumsStayInExactRange); beyond it a sum
// silently loses exactness, and with it the worker-count independence.
const exactQ = 1.5 * (1 << 12)

// pairArgs is what forceAVX2 reads: the row and particle arrays and the
// constants of a tile, and the home particle i.
type pairArgs struct {
	x, y, z, ai     *float64
	slot, part      *int32
	parts           *Particle
	halo            *geometry.Vec3
	haloLo, haloN   int64
	invRc, negGamma float64
	sigma           float64
	stepKey         uint64
	xi, yi, zi      float64
	vxi, vyi, vzi   float64
	id              int64
	frozen          bool    // i is frozen
	fx, fy, fz      float64 // out: the sum of i's pair forces
}

// forcesInTile accumulates the Groot-Warren pair forces of every cell pair
// homed in the tile, a row of home cells at a time, in three phases. GATHER
// (gatherRow.gather) lays the row's half-shell neighbourhood out contiguously.
// FILTER runs the cutoff test of one home particle over its two candidate
// ranges without a branch, keeping only the indices of the few inside.
// FORCE touches Particles (velocity, id, species, force) for those alone.
// Where useAVX2 holds, FILTER and FORCE run as assembly (kernel_amd64.s)
// that gives the same bits as the Go loops below.
func (s *System) forcesInTile(t *forceTile, row *gatherRow) {
	invRc := 1 / s.Rc
	gamma := s.Gamma
	sigma := math.Sqrt(2*s.Gamma*s.KBT) / math.Sqrt(s.Dt)
	stepKey := s.Seed ^ splitmix64(uint64(s.Step))
	parts := s.Particles
	halo, haloLo, haloN := s.halo[t.haloOff:], t.haloLo, uint32(t.haloHi-t.haloLo)
	short := s.short[0] || s.short[1] || s.short[2]
	// The AVX2 kernel knows no per-pair fold: boxes with a short axis keep
	// the Go loops.
	simd := useAVX2 && !short
	rc2 := s.Rc * s.Rc
	pa := pairArgs{
		parts: unsafe.SliceData(parts), halo: unsafe.SliceData(halo),
		haloLo: int64(haloLo), haloN: int64(haloN),
		invRc: invRc, negGamma: -gamma, sigma: sigma, stepKey: stepKey,
	}
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
			gx, gy, gz, slot, part, hit := row.x[:row.n], row.y[:row.n], row.z[:row.n], row.slot[:row.n], row.part[:row.n], row.hit[:row.n]
			np := row.n + rowPad
			px, py, pz, phit := row.x[:np], row.y[:np], row.z[:np], row.hit[:np]
			pa.x, pa.y, pa.z, pa.slot, pa.part = &px[0], &py[0], &pz[0], &row.slot[0], &row.part[0]
			for cx := 0; cx < ncx; cx++ {
				ownEnd := int(row.own[cx+2])
				col0, col1 := int(row.col[cx]), int(row.col[cx+3])
				for a := int(row.own[cx]); a < int(row.own[cx+1]); a++ {
					xi, yi, zi := gx[a], gy[a], gz[a]
					var nhit int
					if simd {
						nhit = filterAVX2(px, py, pz, phit, a, ownEnd, col0, col1, rc2)
					} else {
						nhit = s.filter(row, a, a+1, ownEnd, 0)
						nhit = s.filter(row, a, col0, col1, nhit)
					}
					if nhit == 0 {
						continue
					}
					pi := &parts[part[a]]
					ai := s.A[pi.Species]
					if simd {
						pa.ai, pa.id, pa.frozen = &ai[0], pi.ID, pi.Frozen
						pa.xi, pa.yi, pa.zi = xi, yi, zi
						pa.vxi, pa.vyi, pa.vzi = pi.Vel.X, pi.Vel.Y, pi.Vel.Z
						forceAVX2(&pa, phit, nhit)
						pi.F.X, pi.F.Y, pi.F.Z = pi.F.X+pa.fx, pi.F.Y+pa.fy, pi.F.Z+pa.fz
						continue
					}
					fi := pi.F
					for _, k := range hit[:nhit] {
						dx, dy, dz := xi-gx[k], yi-gy[k], zi-gz[k]
						if short {
							dx, dy, dz = s.foldShort(dx, dy, dz)
						}
						r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
						sj := slot[k]
						pj := &parts[part[k]]
						if r2 == 0 || pi.Frozen && pj.Frozen {
							continue
						}
						// One division per pair: with u = 1/r and w = 1 - r/rc,
						// (a w - γ w² r̂·v + σ w ξ/√dt) r̂ = (a - γ w u d·v + σξ/√dt) w u d.
						r := math.Sqrt(r2)
						wu := (1 - float64(r*invRc)) / r
						vx, vy, vz := pi.Vel.X-pj.Vel.X, pi.Vel.Y-pj.Vel.Y, pi.Vel.Z-pj.Vel.Z
						fd := -gamma * wu * (float64(dx*vx) + float64(dy*vy) + float64(dz*vz))
						fr := sigma * pairXiKeyed(stepKey, pi.ID, pj.ID)
						f := (ai[pj.Species] + float64(fd) + float64(fr)) * wu
						// float64() rounds the product, so it cannot fuse
						// into an FMA with the add that rounds it (exactQ).
						fx := float64(f*dx) + exactQ - exactQ
						fy := float64(f*dy) + exactQ - exactQ
						fz := float64(f*dz) + exactQ - exactQ
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
		if float64(dx*dx)+float64(dy*dy)+float64(dz*dz) < rc2 {
			n++
		}
	}
	return n
}

// addScaled returns v + k f. float64() rounds each product on its own, so
// that no architecture fuses it into the add: the step is the same bits on
// every one (TestNoFusedMultiplyAdd).
func addScaled(v, f geometry.Vec3, k float64) geometry.Vec3 {
	return geometry.Vec3{X: v.X + float64(f.X*k), Y: v.Y + float64(f.Y*k), Z: v.Z + float64(f.Z*k)}
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
		p.Vel = addScaled(p.Vel, p.F, s.Lambda*dt)
		p.Pos = addScaled(p.Pos, p.Vel, dt)
	}
	s.applyBoundaries()
	s.Step++
	s.Time += dt
	// v = v_pred + dt (f_new + (1-2λ) f_old)/2: at Groot-Warren's λ = 1/2 the
	// old force drops out, and is neither kept nor added.
	wOld := dt * (1 - float64(2*s.Lambda)) / 2
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
		p.Vel = addScaled(p.Vel, p.F, dt/2)
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
// (latched: a wedged ensemble trips once, not once per step) with its first
// non-finite value in the order Pos.X, Pos.Y, Pos.Z, Vel.X, Vel.Y, Vel.Z.
// Only called when the watchdog bundle is attached. Each particle is
// screened by one test, that the sum of v - v over its six values is 0,
// which holds exactly when all six are finite (v - v is NaN for a NaN or an
// infinity); only a particle that fails is scanned value by value.
func (s *System) guardParticles() {
	for i := range s.Particles {
		r, v := &s.Particles[i].Pos, &s.Particles[i].Vel
		if (r.X-r.X)+(r.Y-r.Y)+(r.Z-r.Z)+(v.X-v.X)+(v.Y-v.Y)+(v.Z-v.Z) == 0 {
			continue
		}
		for _, x := range [...]float64{r.X, r.Y, r.Z, v.X, v.Y, v.Z} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				s.Watch.GuardValue("dpd.step", "particle", x, i) //nolint:errcheck // event recorded; VVStep has no error path
				return
			}
		}
	}
}

// Run advances n steps and returns the first fault a step could not carry
// out: a flux face whose influx ran away (not finite, or more particles in
// one step than the box holds at its density) inserted nothing. The fault
// stays, and Run steps no further, until ApplyState restores a state.
func (s *System) Run(n int) error {
	for i := 0; i < n && s.err == nil; i++ {
		s.VVStep()
	}
	return s.err
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
