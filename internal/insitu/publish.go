package insitu

import (
	"fmt"
	"sort"

	"nektarg/internal/core"
	"nektarg/internal/geometry"
)

// Sink accepts published pieces. Publish must never block and reports whether
// the piece was accepted (false = counted as dropped by the transport). *Queue
// is the transport; tests substitute their own.
type Sink interface {
	Publish(p *Piece) bool
}

// Config shapes the downsampling a Publisher applies before handing pieces to
// its sink. The zero value is usable: every field has a working default.
type Config struct {
	// Stride publishes every Stride-th exchange period (<1 = every period).
	Stride int
	// MaxParticles caps each region's subsampled cloud (<1 = 2048).
	MaxParticles int
}

// gridStride keeps every gridStride-th grid node per axis. The paper
// streamed decimated fields to the vis nodes for the same reason: the
// observer needs shape, not spectral accuracy.
const gridStride = 2

func (c Config) stride() int {
	if c.Stride < 1 {
		return 1
	}
	return c.Stride
}

func (c Config) maxParticles() int {
	if c.MaxParticles < 1 {
		return 2048
	}
	return c.MaxParticles
}

// Publisher downsamples a metasolver's state into snapshot pieces once per
// stride exchanges and offers them to a sink, never blocking. It implements
// core.FramePublisher.
type Publisher struct {
	cfg  Config
	sink Sink
}

// NewPublisher builds a publisher over an existing sink.
func NewPublisher(cfg Config, sink Sink) *Publisher {
	return &Publisher{cfg: cfg, sink: sink}
}

// NewPipeline builds the in-process transport: a bounded queue plus a
// publisher feeding it.
func NewPipeline(cfg Config) (*Publisher, *Queue) {
	q := NewQueue(DefaultQueueCap)
	return NewPublisher(cfg, q), q
}

// PublishExchange implements core.FramePublisher: on stride boundaries it
// snapshots every patch, region and interface into independent pieces and
// offers each to the sink. Off-stride exchanges return after one modulo.
func (pb *Publisher) PublishExchange(m *core.Metasolver, exchange int, t float64) {
	if exchange%pb.cfg.stride() != 0 {
		return
	}
	for _, p := range m.Patches {
		pb.sink.Publish(&Piece{
			Kind: KindContinuum, Source: "patch:" + p.Name,
			Step: exchange, Time: t,
			Continuum: SnapshotPatch(p, gridStride),
		})
	}
	for _, a := range m.Atomistic {
		pb.sink.Publish(&Piece{
			Kind: KindParticles, Source: "dpd:" + a.Name,
			Step: exchange, Time: t,
			Particles: SnapshotParticles(a, pb.cfg.maxParticles()),
		})
		for _, surf := range a.Interfaces {
			pb.sink.Publish(&Piece{
				Kind: KindInterface, Source: fmt.Sprintf("iface:%s/%s", a.Name, surf.Name),
				Step: exchange, Time: t,
				Surface: SnapshotSurface(a, surf),
			})
		}
	}
}

// ExpectedSources lists the source labels a publisher derives from a
// metasolver — the assembler's completeness set. Sorted for determinism.
func ExpectedSources(m *core.Metasolver) []string {
	var out []string
	for _, p := range m.Patches {
		out = append(out, "patch:"+p.Name)
	}
	for _, a := range m.Atomistic {
		out = append(out, "dpd:"+a.Name)
		for _, surf := range a.Interfaces {
			out = append(out, fmt.Sprintf("iface:%s/%s", a.Name, surf.Name))
		}
	}
	sort.Strings(out)
	return out
}

// SnapshotPatch decimates a patch's grid and fields by keeping every
// stride-th node per axis (always including node 0). All arrays are deep
// copies: the piece stays valid while the solver keeps stepping.
func SnapshotPatch(p *core.ContinuumPatch, stride int) *ContinuumSlab {
	if stride < 1 {
		stride = 1
	}
	g := p.Solver.G
	keep := func(n int) []int {
		idx := make([]int, 0, n/stride+1)
		for i := 0; i < n; i += stride {
			idx = append(idx, i)
		}
		// Keep the far boundary so the slab spans the full patch box.
		if idx[len(idx)-1] != n-1 {
			idx = append(idx, n-1)
		}
		return idx
	}
	ix, iy, iz := keep(g.Nx), keep(g.Ny), keep(g.Nz)
	pick := func(src []float64, idx []int) []float64 {
		out := make([]float64, len(idx))
		for i, j := range idx {
			out[i] = src[j]
		}
		return out
	}
	s := &ContinuumSlab{
		X: pick(g.X[:g.Nx], ix), Y: pick(g.Y[:g.Ny], iy), Z: pick(g.Z[:g.Nz], iz),
		Origin: p.Origin,
	}
	n := len(ix) * len(iy) * len(iz)
	s.U = make([]float64, 0, n)
	s.V = make([]float64, 0, n)
	s.W = make([]float64, 0, n)
	s.Pr = make([]float64, 0, n)
	for _, k := range iz {
		for _, j := range iy {
			for _, i := range ix {
				idx := g.Idx(i, j, k)
				s.U = append(s.U, p.Solver.U[idx])
				s.V = append(s.V, p.Solver.V[idx])
				s.W = append(s.W, p.Solver.W[idx])
				s.Pr = append(s.Pr, p.Solver.Pr[idx])
			}
		}
	}
	return s
}

// SnapshotParticles subsamples a region's particle population to at most max
// particles by a deterministic stride walk, mapping positions into global
// continuum coordinates (velocities stay in DPD units; observers label them).
func SnapshotParticles(a *core.AtomisticRegion, max int) *ParticleCloud {
	n := len(a.Sys.Particles)
	stride := 1
	if max > 0 && n > max {
		stride = (n + max - 1) / max
	}
	c := &ParticleCloud{Total: n}
	for i := 0; i < n; i += stride {
		pt := &a.Sys.Particles[i]
		c.Pos = append(c.Pos, a.DPDToGlobal(pt.Pos))
		c.Vel = append(c.Vel, pt.Vel)
		c.Species = append(c.Species, pt.Species)
	}
	return c
}

// SnapshotSurface deep-copies an interface triangulation into global
// continuum coordinates.
func SnapshotSurface(a *core.AtomisticRegion, surf *geometry.Surface) *SurfacePatch {
	sp := &SurfacePatch{Name: surf.Name, Tris: make([]geometry.Triangle, len(surf.Triangles))}
	for i, t := range surf.Triangles {
		sp.Tris[i] = geometry.Triangle{
			A: a.DPDToGlobal(t.A),
			B: a.DPDToGlobal(t.B),
			C: a.DPDToGlobal(t.C),
		}
	}
	return sp
}
