// Package config builds coupled simulations from declarative JSON — the
// production front door a downstream user drives NεκTαrG with instead of
// writing Go. A config names continuum patches, their couplings, embedded
// DPD regions (with optional platelet models), 1D peripheral outlets and the
// exchange schedule; Build returns the wired, runnable metasolver.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"nektarg/internal/core"
	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/insitu"
	"nektarg/internal/nektar1d"
	"nektarg/internal/nektar3d"
	"nektarg/internal/platelet"
)

// Vec is a 3-vector in JSON array form.
type Vec [3]float64

func (v Vec) vec3() geometry.Vec3 { return geometry.Vec3{X: v[0], Y: v[1], Z: v[2]} }

// Patch describes one continuum solver instance.
type Patch struct {
	Name     string  `json:"name"`
	Origin   Vec     `json:"origin"`
	Elements [3]int  `json:"elements"`
	Order    int     `json:"order"`
	Size     Vec     `json:"size"`
	Periodic [3]bool `json:"periodic"`
	Nu       float64 `json:"nu"`
	Dt       float64 `json:"dt"`
	// Force is a constant body force.
	Force Vec `json:"force"`
	// Initial selects a named initial/boundary profile: "rest" or
	// "poiseuille" (u = z(1-z) with matching Dirichlet data).
	Initial string `json:"initial"`
	// TimeOrder selects the stiffly stable integration order (default 1).
	TimeOrder int `json:"timeOrder"`
	// Parallel sets the intra-patch operator worker count (0/1 serial, -1
	// GOMAXPROCS). Output is bit-identical for every setting.
	Parallel int `json:"parallel"`
}

// Coupling links a donor patch to a receiver face.
type Coupling struct {
	Donor    string `json:"donor"`
	Receiver string `json:"receiver"`
	Face     string `json:"face"`
}

// Outlet attaches a NεκTαr-1D fractal peripheral tree to one outflow face of
// a patch: the full Figure 2 structure (3D + 1D + DPD). The tree itself is
// not configurable — every run uses the same one (see the outlet constants).
type Outlet struct {
	Patch string `json:"patch"`
	Face  string `json:"face"`
}

// The peripheral tree every outlet gets, and the 3D→1D flow unit conversion.
const (
	outletGenerations     = 3
	outletNodesPerSegment = 21
	outletAreaScale       = 6
)

// Units mirrors core.Units.
type Units struct {
	L  float64 `json:"l"`
	Nu float64 `json:"nu"`
}

// Platelets configures the thrombus model of a region.
type Platelets struct {
	Count int     `json:"count"`
	Delay float64 `json:"delay"`
	Sites []Vec   `json:"sites"`
	// SeedBox gives the [lo, hi] corners of the seeding region.
	SeedBox [2]Vec `json:"seedBox"`
}

// Region describes one embedded DPD domain.
type Region struct {
	Name      string  `json:"name"`
	Origin    Vec     `json:"origin"`
	Box       Vec     `json:"box"`
	Particles int     `json:"particles"`
	Rho       float64 `json:"rho"`
	KBT       float64 `json:"kbt"`
	Dt        float64 `json:"dt"`
	Seed      uint64  `json:"seed"`
	// Walls selects a preset: "" or "none" (fully open in x, periodic
	// y/z), "zslab" (no-slip walls at z = 0 and z = box.z), "dome" (the
	// aneurysm fundus of Figure 10: a triangulated spherical cap bulging up
	// from below the box, centred under it, with a no-slip lid at z = box.z).
	Walls string `json:"walls"`
	// Units and scale-up for the Eq. 1 coupling.
	NSUnits  Units   `json:"nsUnits"`
	DPDUnits Units   `json:"dpdUnits"`
	Boost    float64 `json:"boost"`
	// InterfaceDivisions triangulates the inflow face (default 3x3).
	InterfaceDivisions int        `json:"interfaceDivisions"`
	Platelets          *Platelets `json:"platelets"`
	// FluxScale multiplies the 3D->DPD interface velocity trace at
	// application (0 means 1). Anything other than 1 is a deliberate
	// conservation fault: the audit ledger's gi.flux budget must catch it.
	FluxScale float64 `json:"fluxScale"`
	// Parallel sets the force-evaluation worker count, one force tile each
	// (0 = GOMAXPROCS). Output is bit-identical for every setting and core
	// count on one architecture.
	Parallel int `json:"parallel"`
}

// Exchange sets the time progression.
type Exchange struct {
	NSSteps  int `json:"nsSteps"`  // per exchange period (default 10)
	DPDPerNS int `json:"dpdPerNs"` // DPD steps per NS step (default 20)
}

// Audit enables the physics audit ledger (internal/audit): per-exchange
// conservation and coupling-fidelity budgets judged against the ledger's
// built-in tolerance bands. The block has no keys; "audit": {} enables it.
type Audit struct{}

// Insitu configures the live observation pipeline (internal/insitu): a
// non-blocking, drop-accounted snapshot stream from the solvers to an
// observer that assembles causally consistent frames. Omitted = off; the
// cmd/nektarg -insitu flags override individual fields.
type Insitu struct {
	// Stride publishes every Stride-th exchange period (default 1).
	Stride int `json:"stride"`
	// MaxParticles caps each region's particle subsample (default 2048).
	MaxParticles int `json:"maxParticles"`
	// Dir receives the rolling VTK time series ("" = in-memory only).
	Dir string `json:"dir"`
}

// InsituConfig is the insitu package's publisher config for the spec.
func (s *Insitu) InsituConfig() insitu.Config {
	if s == nil {
		return insitu.Config{}
	}
	return insitu.Config{Stride: s.Stride, MaxParticles: s.MaxParticles}
}

// Transport selects how the simulation's rank world is carried: the default
// in-process mailboxes, or a TCP world spanning OS processes (one process per
// rank, every process running the same config). Omitted = in-process; the
// cmd/nektarg -transport/-rank/-peers flags override individual fields.
type Transport struct {
	// Kind is "inproc" (default) or "tcp".
	Kind string `json:"kind"`
	// Rank is this process's slot in the world (tcp only).
	Rank int `json:"rank"`
	// Peers lists every rank's host:port in rank order (tcp only); this
	// process listens at Peers[Rank] and connects to the rest.
	Peers []string `json:"peers"`
	// RendezvousSec bounds how long connection setup waits for the other
	// processes to appear (default 30s) — also the window a restarted
	// process has to rejoin after a crash.
	RendezvousSec int `json:"rendezvousSec"`
}

// Validate checks the transport spec for internal consistency.
func (t *Transport) Validate() error {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case "", "inproc":
		return nil
	case "tcp":
		if len(t.Peers) < 1 {
			return fmt.Errorf("config: transport: tcp needs a peers list")
		}
		if t.Rank < 0 || t.Rank >= len(t.Peers) {
			return fmt.Errorf("config: transport: rank %d outside peers list of %d", t.Rank, len(t.Peers))
		}
		return nil
	default:
		return fmt.Errorf("config: transport: unknown kind %q (want inproc or tcp)", t.Kind)
	}
}

// Config is the full declarative simulation description.
type Config struct {
	Patches   []Patch    `json:"patches"`
	Couplings []Coupling `json:"couplings"`
	Regions   []Region   `json:"regions"`
	Outlets   []Outlet   `json:"outlets,omitempty"`
	Exchange  Exchange   `json:"exchange"`
	Insitu    *Insitu    `json:"insitu,omitempty"`
	Audit     *Audit     `json:"audit,omitempty"`
	Transport *Transport `json:"transport,omitempty"`
}

// Load parses a JSON config, rejecting unknown fields and anything after the
// config object.
func Load(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, fmt.Errorf("config: data after the config object")
	}
	return &c, nil
}

// Built bundles the constructed simulation with name lookups and the models
// that need post-construction access.
type Built struct {
	Meta      *core.Metasolver
	Patches   map[string]*core.ContinuumPatch
	Regions   map[string]*core.AtomisticRegion
	Platelets map[string]*platelet.Model
	// Networks are the outlets' 1D trees keyed by outlet name
	// ("<patch>:<face>") — what a core.Checkpointer carries as Networks.
	Networks map[string]*nektar1d.Network
}

// Build constructs the metasolver described by the config.
func (c *Config) Build() (*Built, error) {
	if len(c.Patches) == 0 {
		return nil, fmt.Errorf("config: no patches")
	}
	b := &Built{
		Meta:      core.NewMetasolver(),
		Patches:   map[string]*core.ContinuumPatch{},
		Regions:   map[string]*core.AtomisticRegion{},
		Platelets: map[string]*platelet.Model{},
		Networks:  map[string]*nektar1d.Network{},
	}
	if c.Exchange.NSSteps > 0 {
		b.Meta.NSStepsPerExchange = c.Exchange.NSSteps
	}
	if c.Exchange.DPDPerNS > 0 {
		b.Meta.DPDStepsPerNS = c.Exchange.DPDPerNS
	}

	for _, pc := range c.Patches {
		if pc.Name == "" {
			return nil, fmt.Errorf("config: unnamed patch")
		}
		if _, dup := b.Patches[pc.Name]; dup {
			return nil, fmt.Errorf("config: duplicate patch %q", pc.Name)
		}
		patch, err := buildPatch(pc)
		if err != nil {
			return nil, fmt.Errorf("config: patch %q: %w", pc.Name, err)
		}
		b.Patches[pc.Name] = patch
		b.Meta.Patches = append(b.Meta.Patches, patch)
	}

	for i, cc := range c.Couplings {
		donor, ok := b.Patches[cc.Donor]
		if !ok {
			return nil, fmt.Errorf("config: coupling donor %q unknown", cc.Donor)
		}
		recv, ok := b.Patches[cc.Receiver]
		if !ok {
			return nil, fmt.Errorf("config: coupling receiver %q unknown", cc.Receiver)
		}
		if donor == recv {
			return nil, fmt.Errorf("config: coupling donor %q is its own receiver", cc.Donor)
		}
		if _, _, err := nektar3d.ParseFace(cc.Face); err != nil {
			return nil, fmt.Errorf("config: coupling face: %w", err)
		}
		coupling := &core.PatchCoupling{Donor: donor, Receiver: recv, Face: cc.Face}
		if err := coupling.CheckFace(); err != nil {
			return nil, fmt.Errorf("config: couplings[%d].face %s: %w", i, cc.Face, err)
		}
		b.Meta.Couplings = append(b.Meta.Couplings, coupling)
	}

	for i, rc := range c.Regions {
		if rc.Name == "" {
			return nil, fmt.Errorf("config: unnamed region")
		}
		if _, dup := b.Regions[rc.Name]; dup {
			return nil, fmt.Errorf("config: duplicate region %q", rc.Name)
		}
		region, model, err := buildRegion(rc)
		if err != nil {
			return nil, fmt.Errorf("config: region %q: %w", rc.Name, err)
		}
		if err := b.Meta.CheckInterfaces(region); err != nil {
			return nil, fmt.Errorf("config: regions[%d].origin %v: %w", i, rc.Origin, err)
		}
		b.Regions[rc.Name] = region
		b.Meta.Atomistic = append(b.Meta.Atomistic, region)
		if model != nil {
			b.Platelets[rc.Name] = model
		}
	}

	for _, oc := range c.Outlets {
		patch, ok := b.Patches[oc.Patch]
		if !ok {
			return nil, fmt.Errorf("config: outlet patch %q unknown", oc.Patch)
		}
		spec := nektar1d.DefaultTreeSpec(outletGenerations)
		spec.NodesPerSegment = outletNodesPerSegment
		tree, inlet, err := nektar1d.BuildFractalTree(spec)
		if err != nil {
			return nil, fmt.Errorf("config: outlet %s:%s: %w", oc.Patch, oc.Face, err)
		}
		out, err := core.NewOutletTo1D(patch, oc.Face, tree, inlet, outletAreaScale)
		if err != nil {
			return nil, fmt.Errorf("config: outlet %s:%s: %w", oc.Patch, oc.Face, err)
		}
		if _, dup := b.Networks[out.Name()]; dup {
			return nil, fmt.Errorf("config: duplicate outlet on %s", out.Name())
		}
		b.Networks[out.Name()] = tree
		b.Meta.Outlets = append(b.Meta.Outlets, out)
	}
	return b, nil
}

func buildPatch(pc Patch) (*core.ContinuumPatch, error) {
	g, err := nektar3d.NewGrid(pc.Elements[0], pc.Elements[1], pc.Elements[2], pc.Order,
		pc.Size[0], pc.Size[1], pc.Size[2], pc.Periodic[0], pc.Periodic[1], pc.Periodic[2])
	if err != nil {
		return nil, err
	}
	g.Parallel = pc.Parallel
	s, err := nektar3d.NewSolver(g, pc.Nu, pc.Dt)
	if err != nil {
		return nil, err
	}
	if pc.TimeOrder != 0 {
		if err := s.SetOrder(pc.TimeOrder); err != nil {
			return nil, fmt.Errorf("timeOrder: %w", err)
		}
	}
	f := pc.Force
	if f != (Vec{}) {
		s.Force = func(_, _, _, _ float64) (float64, float64, float64) {
			return f[0], f[1], f[2]
		}
	}
	switch pc.Initial {
	case "", "rest":
	case "poiseuille":
		prof := func(x, y, z float64) (float64, float64, float64) { return z * (1 - z), 0, 0 }
		s.SetInitial(prof)
		s.VelBC = func(_, x, y, z float64) (float64, float64, float64) { return prof(x, y, z) }
	default:
		return nil, fmt.Errorf("unknown initial profile %q", pc.Initial)
	}
	return core.NewContinuumPatch(pc.Name, s, pc.Origin.vec3()), nil
}

func buildRegion(rc Region) (*core.AtomisticRegion, *platelet.Model, error) {
	nspecies := 1
	if rc.Platelets != nil {
		nspecies = 2
	}
	params := dpd.DefaultParams(nspecies)
	if rc.Dt > 0 {
		params.Dt = rc.Dt
	}
	if rc.KBT > 0 {
		params.KBT = rc.KBT
	}
	if rc.Seed != 0 {
		params.Seed = rc.Seed
	}
	rho := rc.Rho
	if rho <= 0 {
		rho = 3
	}
	box := rc.Box.vec3()
	// The box is checked before a wall preset is built from it.
	sys, err := dpd.NewSystem(params, geometry.Vec3{}, box, [3]bool{false, true, true})
	if err != nil {
		return nil, nil, err
	}
	switch rc.Walls {
	case "", "none":
	case "zslab":
		sys.Periodic[2] = false
		sys.Walls = []dpd.Wall{
			&dpd.PlaneWall{Point: geometry.Vec3{}, Norm: geometry.Vec3{Z: 1}},
			&dpd.PlaneWall{Point: geometry.Vec3{Z: box.Z}, Norm: geometry.Vec3{Z: -1}},
		}
	case "dome":
		sys.Periodic[2] = false
		dome := geometry.SphereSurface("fundusWall",
			geometry.Vec3{X: box.X / 2, Y: box.Y / 2, Z: -0.8 * box.Z}, 0.84*box.Z, 24, 48)
		sys.Walls = []dpd.Wall{
			dpd.NewSDFWall(dome, geometry.Vec3{X: -1, Y: -1, Z: -1},
				geometry.Vec3{X: box.X + 1, Y: box.Y + 1, Z: 0.3 * box.Z}, 0.25),
			&dpd.PlaneWall{Point: geometry.Vec3{Z: box.Z}, Norm: geometry.Vec3{Z: -1}},
		}
	default:
		return nil, nil, fmt.Errorf("unknown wall preset %q", rc.Walls)
	}
	sys.Parallel = rc.Parallel
	n := rc.Particles
	if n <= 0 {
		n = int(rho * box.X * box.Y * box.Z)
	}
	sys.FillRandom(n, 0)
	inflow := &dpd.FluxBC{Axis: 0, AtMax: false, Rho: rho}
	outflow := &dpd.FluxBC{Axis: 0, AtMax: true, Rho: rho}
	sys.Inflows = []*dpd.FluxBC{inflow, outflow}

	var model *platelet.Model
	if rc.Platelets != nil {
		p := rc.Platelets
		sites := make([]geometry.Vec3, len(p.Sites))
		for i, sv := range p.Sites {
			sites[i] = sv.vec3()
		}
		if model, err = platelet.NewModel(1, sites, p.Delay); err != nil {
			return nil, nil, fmt.Errorf("platelets.%w", err)
		}
		sys.Bonded = append(sys.Bonded, model)
		rng := rand.New(rand.NewSource(int64(params.Seed)))
		if _, err := platelet.SeedPlatelets(sys, model, p.Count, p.SeedBox[0].vec3(), p.SeedBox[1].vec3(), rng.Float64); err != nil {
			return nil, nil, fmt.Errorf("platelets.%w", err)
		}
	}

	div := rc.InterfaceDivisions
	if div <= 0 {
		div = 3
	}
	surf := geometry.PlanarRect("gammaIn", geometry.Vec3{},
		geometry.Vec3{Y: box.Y}, geometry.Vec3{Z: box.Z}, div, div)
	region := &core.AtomisticRegion{
		Name:          rc.Name,
		Sys:           sys,
		Origin:        rc.Origin.vec3(),
		NSUnits:       core.Units{L: rc.NSUnits.L, Nu: rc.NSUnits.Nu},
		DPDUnits:      core.Units{L: rc.DPDUnits.L, Nu: rc.DPDUnits.Nu},
		VelocityBoost: rc.Boost,
		FluxScale:     rc.FluxScale,
		Interfaces:    []*geometry.Surface{surf},
		FluxFaces:     []*dpd.FluxBC{inflow},
	}
	if err := region.NSUnits.Validate(); err != nil {
		return nil, nil, fmt.Errorf("nsUnits: %w", err)
	}
	if err := region.DPDUnits.Validate(); err != nil {
		return nil, nil, fmt.Errorf("dpdUnits: %w", err)
	}
	return region, model, nil
}
