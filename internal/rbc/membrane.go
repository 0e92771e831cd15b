package rbc

import (
	"fmt"
	"math"
	"sort"

	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
)

// Stiffness parameterizes the membrane mechanics. Diseased (malaria-infected)
// cells are roughly an order of magnitude stiffer than healthy ones.
type Stiffness struct {
	// KsFactor scales the WLC spring stiffness (via persistence length).
	KsFactor float64
	// Kb is the bending constant.
	Kb float64
	// Ka, Kv are the global area and volume constraint strengths.
	Ka, Kv float64
}

// Healthy returns the baseline membrane parameters (DPD units).
func Healthy() Stiffness { return Stiffness{KsFactor: 1, Kb: 5, Ka: 500, Kv: 500} }

// Diseased returns malaria-stiffened parameters (~10x spring and bending).
func Diseased() Stiffness { return Stiffness{KsFactor: 10, Kb: 50, Ka: 500, Kv: 500} }

// spring is one WLC+POW bond.
type spring struct {
	i, j int     // membrane-local vertex indices
	lmax float64 // WLC contour length
	kwlc float64 // kBT / persistence-length prefactor
	kp   float64 // repulsive power-law coefficient (equilibrium at l0)
}

// bendPair is one dihedral across an interior edge: triangles (a, b, c) and
// (a, c, d) share edge a-c in outward orientation.
type bendPair struct {
	a, b, c, d int
}

// Membrane couples a triangulated RBC to particles of a DPD system.
type Membrane struct {
	Mesh *TriMesh
	// Idx maps membrane-local vertex index to the particle index in the
	// DPD system.
	Idx []int

	springs []spring
	bends   []bendPair
	kb      float64

	ka, a0 float64
	kv, v0 float64
}

var _ dpd.BondedForce = (*Membrane)(nil)

// NewMembrane instantiates a cell of the given radius at center inside sys:
// it adds the membrane vertices as DPD particles of the given species and
// registers the bonded forces. reducedVolume < 1 deflates the volume target
// (0.64 gives the biconcave RBC shape).
func NewMembrane(sys *dpd.System, center geometry.Vec3, radius float64, subdiv, species int, st Stiffness, reducedVolume float64) *Membrane {
	if reducedVolume <= 0 || reducedVolume > 1 {
		panic(fmt.Sprintf("rbc: reduced volume %v out of (0,1]", reducedVolume))
	}
	mesh := Icosphere(center, radius, subdiv)
	m := &Membrane{Mesh: mesh, kb: st.Kb, ka: st.Ka, kv: st.Kv}
	for _, v := range mesh.Verts {
		m.Idx = append(m.Idx, sys.AddParticle(v, geometry.Vec3{}, species, false))
	}

	// WLC springs at 2.2x equilibrium extension ratio x0 = l0/lmax ≈ 0.45.
	const x0 = 0.45
	kwlc := st.KsFactor * sys.KBT / 0.05 // persistence length p = 0.05 in DPD units
	for _, e := range mesh.Edges() {
		l0 := mesh.Verts[e[0]].Dist(mesh.Verts[e[1]])
		lmax := l0 / x0
		fw := wlcForce(kwlc, l0, lmax)
		// Repulsive power law kp/l² balancing WLC attraction at l0.
		kp := fw * l0 * l0
		m.springs = append(m.springs, spring{i: e[0], j: e[1], lmax: lmax, kwlc: kwlc, kp: kp})
	}

	// Bending pairs in consistent orientation, sorted so force accumulation
	// order (and therefore floating-point rounding) is deterministic run to
	// run — EdgeTrianglePairs returns a map.
	pairs := mesh.EdgeTrianglePairs()
	edges := make([][2]int, 0, len(pairs))
	for e := range pairs {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		ts := pairs[e]
		b := oppositeVertex(mesh.Tris[ts[0]], e)
		d := oppositeVertex(mesh.Tris[ts[1]], e)
		m.bends = append(m.bends, bendPair{a: e[0], b: b, c: e[1], d: d})
	}

	m.a0 = mesh.Area(mesh.Verts)
	m.v0 = math.Abs(mesh.Volume(mesh.Verts)) * reducedVolume
	sys.Bonded = append(sys.Bonded, m)
	return m
}

// oppositeVertex returns the vertex of tri not on edge e.
func oppositeVertex(tri [3]int, e [2]int) int {
	for _, v := range tri {
		if v != e[0] && v != e[1] {
			return v
		}
	}
	panic("rbc: degenerate triangle")
}

// wlcForce returns the attractive wormlike-chain tension at length l. The
// extension ratio is capped at 0.90 so a thermally overstretched bond exerts
// a large but finite restoring force instead of destabilizing the explicit
// integrator (the stiffness at the cap keeps ω·dt inside the velocity-Verlet
// stability region for the diseased parameter set at dt ≈ 5e-3).
func wlcForce(kwlc, l, lmax float64) float64 {
	x := l / lmax
	if x > 0.90 {
		x = 0.90
	}
	return kwlc * (1/(4*(1-x)*(1-x)) - 0.25 + x)
}

// positions gathers current vertex positions from the DPD system. A cell
// that straddles a periodic face has vertices wrapped to both sides of the
// box; each is taken at its image nearest vertex 0 (a cell is far smaller
// than half the box), so bond lengths, area and volume are those of the
// connected surface.
func (m *Membrane) positions(sys *dpd.System) []geometry.Vec3 {
	out := make([]geometry.Vec3, len(m.Idx))
	size, ref := sys.Size(), sys.Particles[m.Idx[0]].Pos
	for k, i := range m.Idx {
		p := sys.Particles[i].Pos
		if sys.Periodic[0] {
			p.X -= size.X * math.Round((p.X-ref.X)/size.X)
		}
		if sys.Periodic[1] {
			p.Y -= size.Y * math.Round((p.Y-ref.Y)/size.Y)
		}
		if sys.Periodic[2] {
			p.Z -= size.Z * math.Round((p.Z-ref.Z)/size.Z)
		}
		out[k] = p
	}
	return out
}

// Area returns the current membrane area.
func (m *Membrane) Area(sys *dpd.System) float64 { return m.Mesh.Area(m.positions(sys)) }

// Volume returns the current enclosed volume.
func (m *Membrane) Volume(sys *dpd.System) float64 {
	return math.Abs(m.Mesh.Volume(m.positions(sys)))
}

// TargetArea returns the area constraint target A0.
func (m *Membrane) TargetArea() float64 { return m.a0 }

// TargetVolume returns the volume constraint target V0.
func (m *Membrane) TargetVolume() float64 { return m.v0 }

// Center returns the vertex centroid (of the image that holds vertex 0).
func (m *Membrane) Center(sys *dpd.System) geometry.Vec3 {
	var c geometry.Vec3
	for _, p := range m.positions(sys) {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(m.Idx)))
}

// Extent returns the membrane's bounding-box size, the deformation metric of
// the stretching test.
func (m *Membrane) Extent(sys *dpd.System) geometry.Vec3 {
	b := geometry.NewAABB(m.positions(sys)...)
	return b.Size()
}

// AddForces implements dpd.BondedForce.
func (m *Membrane) AddForces(sys *dpd.System) {
	pos := m.positions(sys)
	add := func(k int, f geometry.Vec3) {
		p := &sys.Particles[m.Idx[k]]
		p.F = p.F.Add(f)
	}

	// Springs: WLC attraction + power-law repulsion.
	for _, sp := range m.springs {
		d := pos[sp.i].Sub(pos[sp.j])
		l := d.Norm()
		if l == 0 {
			continue
		}
		f := wlcForce(sp.kwlc, l, sp.lmax) - sp.kp/(l*l)
		// f > 0: attraction (force pulls i toward j).
		dir := d.Scale(1 / l)
		add(sp.i, dir.Scale(-f))
		add(sp.j, dir.Scale(f))
	}

	// Bending: E = kb (1 - cos(theta)) per dihedral, via analytic gradients
	// of the normal-angle (standard dihedral force).
	for _, bp := range m.bends {
		m.addBendingForce(pos, bp, add)
	}

	// Global area constraint: E = ka (A - A0)² / (2 A0). The relative
	// deviation driving the restoring force is clamped at ±50% so a
	// catastrophically crumpled membrane is pulled back smoothly instead of
	// exploding the integrator.
	area := m.Mesh.Area(pos)
	ca := -m.ka * clamp((area-m.a0)/m.a0, 0.5)
	for _, t := range m.Mesh.Tris {
		a, b, c := pos[t[0]], pos[t[1]], pos[t[2]]
		n := b.Sub(a).Cross(c.Sub(a))
		nn := n.Norm()
		if nn == 0 {
			continue
		}
		nh := n.Scale(1 / nn)
		// dA/da = 0.5 * nh x (c - b), cyclic.
		add(t[0], nh.Cross(c.Sub(b)).Scale(0.5*ca))
		add(t[1], nh.Cross(a.Sub(c)).Scale(0.5*ca))
		add(t[2], nh.Cross(b.Sub(a)).Scale(0.5*ca))
	}

	// Global volume constraint: E = kv (V - V0)² / (2 V0);
	// dV/da = (b x c)/6 per triangle. Deviation clamped like the area term.
	vol := m.Mesh.Volume(pos)
	sign := 1.0
	if vol < 0 {
		sign = -1
	}
	cv := -m.kv * clamp((math.Abs(vol)-m.v0)/m.v0, 0.5) * sign
	for _, t := range m.Mesh.Tris {
		a, b, c := pos[t[0]], pos[t[1]], pos[t[2]]
		add(t[0], b.Cross(c).Scale(cv/6))
		add(t[1], c.Cross(a).Scale(cv/6))
		add(t[2], a.Cross(b).Scale(cv/6))
	}
}

// addBendingForce applies the dihedral bending force for one edge using
// central finite differences of the compact energy (4 vertices, robust for
// the coarse meshes used here).
func (m *Membrane) addBendingForce(pos []geometry.Vec3, bp bendPair, add func(int, geometry.Vec3)) {
	verts := [4]int{bp.a, bp.b, bp.c, bp.d}
	energy := func() float64 {
		n1 := pos[bp.b].Sub(pos[bp.a]).Cross(pos[bp.c].Sub(pos[bp.a]))
		n2 := pos[bp.c].Sub(pos[bp.a]).Cross(pos[bp.d].Sub(pos[bp.a]))
		l1, l2 := n1.Norm(), n2.Norm()
		if l1 == 0 || l2 == 0 {
			return 0
		}
		cos := n1.Dot(n2) / (l1 * l2)
		if cos > 1 {
			cos = 1
		}
		if cos < -1 {
			cos = -1
		}
		return m.kb * (1 - cos)
	}
	const h = 1e-6
	for _, v := range verts {
		var grad geometry.Vec3
		orig := pos[v]
		for d := 0; d < 3; d++ {
			pos[v] = perturb(orig, d, h)
			ep := energy()
			pos[v] = perturb(orig, d, -h)
			em := energy()
			pos[v] = orig
			g := (ep - em) / (2 * h)
			switch d {
			case 0:
				grad.X = g
			case 1:
				grad.Y = g
			default:
				grad.Z = g
			}
		}
		add(v, grad.Scale(-1))
	}
}

// clamp limits x to [-lim, lim].
func clamp(x, lim float64) float64 {
	if x > lim {
		return lim
	}
	if x < -lim {
		return -lim
	}
	return x
}

func perturb(v geometry.Vec3, dim int, h float64) geometry.Vec3 {
	switch dim {
	case 0:
		v.X += h
	case 1:
		v.Y += h
	default:
		v.Z += h
	}
	return v
}
