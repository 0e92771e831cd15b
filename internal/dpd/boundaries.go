package dpd

import (
	"fmt"
	"math"

	"nektarg/internal/geometry"
)

// PlaneWall is a planar no-slip wall: the fluid occupies the side the normal
// points into. WallVel lets the wall move tangentially (Couette driving).
type PlaneWall struct {
	Point   geometry.Vec3
	Norm    geometry.Vec3 // unit, into the fluid
	WallVel geometry.Vec3
}

// Distance implements Wall.
func (w *PlaneWall) Distance(p geometry.Vec3) float64 { return p.Sub(w.Point).Dot(w.Norm) }

// Normal implements Wall.
func (w *PlaneWall) Normal(geometry.Vec3) geometry.Vec3 { return w.Norm }

// Velocity implements Wall.
func (w *PlaneWall) Velocity(geometry.Vec3) geometry.Vec3 { return w.WallVel }

// CylinderWall is the interior of a circular pipe along the z-axis (the
// Figure 8 domain).
type CylinderWall struct {
	Center geometry.Vec3 // any point on the axis
	Radius float64
}

// Distance implements Wall (positive inside the pipe).
func (w *CylinderWall) Distance(p geometry.Vec3) float64 {
	dx := p.X - w.Center.X
	dy := p.Y - w.Center.Y
	return w.Radius - math.Hypot(dx, dy)
}

// Normal implements Wall: radially inward.
func (w *CylinderWall) Normal(p geometry.Vec3) geometry.Vec3 {
	dx := p.X - w.Center.X
	dy := p.Y - w.Center.Y
	r := math.Hypot(dx, dy)
	if r == 0 {
		return geometry.Vec3{X: 1}
	}
	return geometry.Vec3{X: -dx / r, Y: -dy / r}
}

// Velocity implements Wall.
func (w *CylinderWall) Velocity(geometry.Vec3) geometry.Vec3 { return geometry.Vec3{} }

// meanFieldBoundaryForce returns the exact mean-field compensation for the
// missing half-space of neighbours beyond a planar boundary, for a particle
// at distance h (0 <= h <= rc) from it: integrating the conservative force
// a(1 - r/rc) over the excluded spherical cap at number density rho gives
//
//	F(h) = rho a pi ( rc³/12 - h² rc/2 + 2h³/3 - h⁴/(4 rc) )
//
// directed along the inward normal. This is the conservative part of the
// effective boundary force Feff of Lei, Fedosov & Karniadakis (2011); it
// makes walls and open faces exert exactly the bulk pressure, keeping the
// near-boundary density flat.
func (s *System) meanFieldBoundaryForce(h float64) float64 {
	if h >= s.Rc {
		return 0
	}
	if h < 0 {
		h = 0
	}
	rho := s.targetDensity()
	a := s.A[0][0]
	rc := s.Rc
	return rho * a * math.Pi * (rc*rc*rc/12 - h*h*rc/2 + 2*h*h*h/3 - h*h*h*h/(4*rc))
}

// targetDensity estimates the bulk number density for the boundary force;
// inflow faces carry an explicit target, otherwise measure.
func (s *System) targetDensity() float64 {
	for _, f := range s.Inflows {
		if f.Rho > 0 {
			return f.Rho
		}
	}
	return s.NumberDensity()
}

// addWallForces applies the effective boundary forces of Lei, Fedosov &
// Karniadakis (2011): the mean-field normal force compensating the missing
// particle half-space beyond the wall plus a dissipative near-wall friction
// that enforces no-slip ("we impose effective boundary forces Feff on the
// particles near boundaries").
func (s *System) addWallForces() {
	if len(s.Walls) == 0 {
		return
	}
	gw := s.WallGamma()
	for i := range s.Particles {
		p := &s.Particles[i]
		if p.Frozen {
			continue
		}
		for _, w := range s.Walls {
			h := w.Distance(p.Pos)
			if h >= s.Rc {
				continue
			}
			if h < 0 {
				h = 0
			}
			wgt := 1 - h/s.Rc
			n := w.Normal(p.Pos)
			rel := p.Vel.Sub(w.Velocity(p.Pos))
			f := n.Scale(s.meanFieldBoundaryForce(h)).Sub(rel.Scale(gw * wgt))
			p.F = p.F.Add(f)
		}
	}
}

// addOpenFaceForces adds the conservative part of Feff at inflow/outflow
// faces: the virtual reservoir beyond an open face must push back with the
// bulk pressure, otherwise near-face fluid expands out of the domain. Unlike
// walls there is no dissipative term — flow passes through freely.
func (s *System) addOpenFaceForces() {
	if len(s.Inflows) == 0 {
		return
	}
	// Adaptive velocity control ("such forces ... control flow velocities
	// at inflow/outflow"): faces with a prescribed profile measure the mean
	// velocity in a one-rc buffer slab and apply a proportional corrective
	// body force to the slab.
	s.faceCtrl = grow(s.faceCtrl, len(s.Inflows), 0)
	clear(s.faceCtrl)
	ctrl := s.faceCtrl
	// The slabs hold a few per cent of the particles: list them once, in
	// particle order, and run the mean and the force loop over the list.
	near := grow(s.nearFace, len(s.Particles), cap(s.Particles))[:0]
	for i := range s.Particles {
		if p := &s.Particles[i]; !p.Frozen {
			for _, f := range s.Inflows {
				if h := f.faceDistance(s, p.Pos); h >= 0 && h < s.Rc {
					near = append(near, int32(i))
					break
				}
			}
		}
	}
	s.nearFace = near
	for k, f := range s.Inflows {
		if f.Vel == nil {
			continue
		}
		var mean geometry.Vec3
		var n int
		for _, i := range near {
			p := &s.Particles[i]
			if h := f.faceDistance(s, p.Pos); h >= 0 && h < s.Rc {
				mean = mean.Add(p.Vel)
				n++
			}
		}
		if n == 0 {
			continue
		}
		mean = mean.Scale(1 / float64(n))
		target := f.Vel(f.randomFacePoint(s))
		ctrl[k] = faceControl{force: target.Sub(mean).Scale(f.gain()), on: true}
	}
	for _, i := range near {
		p := &s.Particles[i]
		for k, f := range s.Inflows {
			h := f.faceDistance(s, p.Pos)
			if h >= s.Rc || h < 0 {
				continue
			}
			p.F = p.F.Add(f.inwardNormal().Scale(s.meanFieldBoundaryForce(h)))
			if ctrl[k].on {
				p.F = p.F.Add(ctrl[k].force)
			}
		}
	}
}

// faceControl is the corrective slab force of one flux face's velocity
// controller for the current force evaluation.
type faceControl struct {
	force geometry.Vec3
	on    bool
}

// faceDistance returns the distance from pos to the face along the inward
// normal (negative when outside the box).
func (f *FluxBC) faceDistance(s *System, pos geometry.Vec3) float64 {
	c := [3]float64{pos.X, pos.Y, pos.Z}[f.Axis]
	lo := [3]float64{s.Lo.X, s.Lo.Y, s.Lo.Z}[f.Axis]
	hi := [3]float64{s.Hi.X, s.Hi.Y, s.Hi.Z}[f.Axis]
	if f.AtMax {
		return hi - c
	}
	return c - lo
}

// inwardNormal returns the unit normal pointing into the domain.
func (f *FluxBC) inwardNormal() geometry.Vec3 {
	var n geometry.Vec3
	v := 1.0
	if f.AtMax {
		v = -1
	}
	switch f.Axis {
	case 0:
		n.X = v
	case 1:
		n.Y = v
	default:
		n.Z = v
	}
	return n
}

// WallGamma returns the effective wall friction coefficient (3γ gives a
// sharp no-slip layer for the standard fluid).
func (s *System) WallGamma() float64 { return 3 * s.Gamma }

// applyBoundaries wraps periodic dimensions, bounces particles off walls and
// handles open faces: particles crossing a face carrying a FluxBC are
// deleted (the survivors are compacted in place, order kept); other
// non-periodic faces reflect specularly.
func (s *System) applyBoundaries() {
	sz := s.Size()
	kept := 0
	for i := range s.Particles {
		p := &s.Particles[i]
		if !p.Frozen {
			// Periodic wrap.
			if s.Periodic[0] {
				p.Pos.X = s.Lo.X + wrap(p.Pos.X-s.Lo.X, sz.X)
			}
			if s.Periodic[1] {
				p.Pos.Y = s.Lo.Y + wrap(p.Pos.Y-s.Lo.Y, sz.Y)
			}
			if s.Periodic[2] {
				p.Pos.Z = s.Lo.Z + wrap(p.Pos.Z-s.Lo.Z, sz.Z)
			}
			// Geometric walls: bounce-back (reverse relative velocity,
			// reflect position) imposes no-slip at the surface.
			for _, w := range s.Walls {
				if h := w.Distance(p.Pos); h < 0 {
					n := w.Normal(p.Pos)
					p.Pos = p.Pos.Sub(n.Scale(2 * h)) // h < 0: push back inside
					vw := w.Velocity(p.Pos)
					p.Vel = vw.Scale(2).Sub(p.Vel)
				}
			}
			// Open/solid box faces on non-periodic dims.
			if s.handleFace(p, 0) || s.handleFace(p, 1) || s.handleFace(p, 2) {
				continue // outflow
			}
		}
		if kept != i {
			s.Particles[kept] = *p
		}
		kept++
	}
	s.Deleted += int64(len(s.Particles) - kept)
	s.Particles = s.Particles[:kept]
}

// wrap maps x into [0, l). A particle moves a small fraction of the box per
// step, so nearly every call takes the in-range exit — which returns what
// math.Mod would, bit for bit.
func wrap(x, l float64) float64 {
	if 0 <= x && x < l {
		return x
	}
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}

// handleFace reflects or deletes a particle leaving the box along dim d;
// returns true when the particle must be deleted (outflow).
func (s *System) handleFace(p *Particle, d int) bool {
	if s.Periodic[d] {
		return false
	}
	lo, hi, x, v := s.Lo.X, s.Hi.X, &p.Pos.X, &p.Vel.X
	switch d {
	case 1:
		lo, hi, x, v = s.Lo.Y, s.Hi.Y, &p.Pos.Y, &p.Vel.Y
	case 2:
		lo, hi, x, v = s.Lo.Z, s.Hi.Z, &p.Pos.Z, &p.Vel.Z
	}
	if *x < lo {
		if s.fluxFace(d, false) != nil {
			return true
		}
		*x = 2*lo - *x
		*v = -*v
	} else if *x > hi {
		if s.fluxFace(d, true) != nil {
			return true
		}
		*x = 2*hi - *x
		*v = -*v
	}
	return false
}

// fluxFace finds the FluxBC on the given face, if any.
func (s *System) fluxFace(axis int, atMax bool) *FluxBC {
	for _, f := range s.Inflows {
		if f.Axis == axis && f.AtMax == atMax {
			return f
		}
	}
	return nil
}

// FluxBC is an open boundary face following Lei, Fedosov & Karniadakis
// (2011): particles crossing the face are deleted, and new particles are
// inserted "according to local particle flux" — the one-sided Maxwellian
// influx ρ [u_n Φ(s) + σ φ(s)] of a virtual reservoir beyond the face. With
// Vel set the reservoir moves at the prescribed inflow profile; with Vel nil
// (an outflow) the reservoir follows the locally measured fluid velocity, so
// the thermal back-flux is reinjected and the mean density stays at Rho.
type FluxBC struct {
	Axis  int  // 0=x, 1=y, 2=z
	AtMax bool // face at Hi (true) or Lo (false)
	// Vel returns the reservoir velocity at a face point; nil measures it
	// from the near-face fluid.
	Vel func(pos geometry.Vec3) geometry.Vec3
	// Rho is the target number density of the reservoir fluid.
	Rho float64
	// Species of inserted particles.
	Species int
	// ControlGain is the proportional gain of the adaptive velocity
	// controller in the face's buffer slab; 0 selects the default of 10.
	ControlGain float64

	// Acc is the fractional particle accumulator: the sub-unit remainder of
	// the integrated one-sided influx. It is resumable state (captured into
	// dpd.State.FaceAcc by CaptureState) — dropping it across a restart
	// shifts every subsequent insertion time.
	Acc float64
}

// gain returns the effective controller gain.
func (f *FluxBC) gain() float64 {
	if f.ControlGain <= 0 {
		return 10
	}
	return f.ControlGain
}

// oneSidedFlux returns E[max(v_n, 0)] for v_n ~ N(w, sd²): the kinetic
// influx per unit density and area.
func oneSidedFlux(w, sd float64) float64 {
	if sd == 0 {
		if w > 0 {
			return w
		}
		return 0
	}
	s := w / sd
	phi := math.Exp(-0.5*s*s) / math.Sqrt(2*math.Pi)
	cdf := 0.5 * (1 + math.Erf(s/math.Sqrt2))
	return w*cdf + sd*phi
}

// Flux-face geometry. A reservoir's drift is averaged over nSample points
// drawn, like the positions of inserted particles, in a slab faceDepth (in
// units of rc) deep behind the face; a measured reservoir reads the fluid
// within faceSampleRadius of each point.
const (
	nSample          = 4
	faceDepth        = 0.2
	faceSampleRadius = 1.5
)

// reservoirVelocities returns the reservoir drift at the given face points:
// the prescribed profile, or for a measured face what SampleVelocityAt(pt,
// faceSampleRadius rc) returns at each — zero where it finds nobody — from one
// pass over the particles near the face instead of one full sweep per point.
func (f *FluxBC) reservoirVelocities(s *System, pts *[nSample]geometry.Vec3) (v [nSample]geometry.Vec3) {
	if f.Vel != nil {
		for k, pt := range pts {
			v[k] = f.Vel(pt)
		}
		return v
	}
	radius := faceSampleRadius * s.Rc
	// The points lie within faceDepth of the face, so along an open axis
	// nobody beyond radius + depth is in range of any; the 0.05 rc on top is
	// slack for the rounding of the two subtractions.
	near := (faceSampleRadius + faceDepth + 0.05) * s.Rc
	var n [nSample]int
	for i := range s.Particles {
		q := &s.Particles[i]
		if q.Frozen || !s.Periodic[f.Axis] && f.faceDistance(s, q.Pos) > near {
			continue
		}
		for k, pt := range pts {
			if s.inSampleRange(q.Pos, pt, radius*radius) {
				v[k] = v[k].Add(q.Vel)
				n[k]++
			}
		}
	}
	for k := range v {
		if n[k] > 0 {
			v[k] = v[k].Scale(1 / float64(n[k]))
		}
	}
	return v
}

// inwardComponent projects a velocity onto the inward face normal.
func (f *FluxBC) inwardComponent(v geometry.Vec3) float64 {
	c := [3]float64{v.X, v.Y, v.Z}[f.Axis]
	if f.AtMax {
		return -c
	}
	return c
}

// apply inserts particles for the accumulated one-sided influx of one step.
func (f *FluxBC) apply(s *System) {
	if f.Axis < 0 || f.Axis > 2 {
		panic(fmt.Sprintf("dpd: FluxBC axis %d", f.Axis))
	}
	if f.Rho <= 0 {
		return // deletion-only face
	}
	sz := s.Size()
	dims := [3]float64{sz.X, sz.Y, sz.Z}
	area := dims[(f.Axis+1)%3] * dims[(f.Axis+2)%3]
	sd := math.Sqrt(s.KBT)

	// Reservoir drift sampled at a few face points.
	var pts [nSample]geometry.Vec3
	for k := range pts {
		pts[k] = f.randomFacePoint(s)
	}
	var w float64
	var vres geometry.Vec3
	for _, v := range f.reservoirVelocities(s, &pts) {
		vres = vres.Add(v)
		w += f.inwardComponent(v)
	}
	w /= nSample
	vres = vres.Scale(1.0 / nSample)

	f.Acc += f.Rho * oneSidedFlux(w, sd) * area * s.Dt
	for f.Acc >= 1 {
		f.Acc--
		pos := f.randomFacePoint(s)
		// Normal component: positive part of N(w, sd) via rejection.
		vn := 0.0
		for try := 0; try < 64; try++ {
			vn = w + s.rng.NormFloat64()*sd
			if vn > 0 {
				break
			}
			vn = 0
		}
		vel := geometry.Vec3{
			X: vres.X + s.rng.NormFloat64()*sd,
			Y: vres.Y + s.rng.NormFloat64()*sd,
			Z: vres.Z + s.rng.NormFloat64()*sd,
		}
		// Overwrite the normal component with the inward-conditioned draw.
		sign := 1.0
		if f.AtMax {
			sign = -1
		}
		switch f.Axis {
		case 0:
			vel.X = sign * vn
		case 1:
			vel.Y = sign * vn
		default:
			vel.Z = sign * vn
		}
		s.AddParticle(pos, vel, f.Species, false)
		s.Inserted++
	}
}

// randomFacePoint samples a point in a thin insertion slab at the face.
func (f *FluxBC) randomFacePoint(s *System) geometry.Vec3 {
	sz := s.Size()
	depth := faceDepth * s.Rc
	pos := geometry.Vec3{
		X: s.Lo.X + s.rng.Float64()*sz.X,
		Y: s.Lo.Y + s.rng.Float64()*sz.Y,
		Z: s.Lo.Z + s.rng.Float64()*sz.Z,
	}
	coord := func(lo, hi float64) float64 {
		if f.AtMax {
			return hi - s.rng.Float64()*depth
		}
		return lo + s.rng.Float64()*depth
	}
	switch f.Axis {
	case 0:
		pos.X = coord(s.Lo.X, s.Hi.X)
	case 1:
		pos.Y = coord(s.Lo.Y, s.Hi.Y)
	default:
		pos.Z = coord(s.Lo.Z, s.Hi.Z)
	}
	return pos
}
