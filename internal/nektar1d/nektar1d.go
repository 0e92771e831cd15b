// Package nektar1d implements NεκTαr-1D: the nonlinear one-dimensional
// arterial blood-flow solver used for peripheral networks invisible to
// CT/MR imaging. It integrates the (A, U) system
//
//	∂A/∂t + ∂(AU)/∂x = 0
//	∂U/∂t + U ∂U/∂x + (1/ρ) ∂p/∂x = -Kr U/A
//
// with the elastic tube law p = β(√A − √A0), using a MacCormack
// predictor-corrector scheme, characteristic inlet/outlet treatment,
// RC-windkessel outflow boundaries and Newton-matched bifurcations
// (continuity of pressure and mass conservation).
package nektar1d

import (
	"fmt"
	"math"
)

// Segment is one arterial segment discretized with N uniformly spaced nodes.
// Build one with NewSegment: it derives the wave-speed constant from Beta and
// Rho, which are fixed from then on.
type Segment struct {
	Name string
	L    float64 // length
	N    int
	A0   float64 // reference cross-section area
	Beta float64 // tube-law stiffness β
	Rho  float64 // blood density
	Kr   float64 // viscous friction coefficient

	A []float64 // cross-section area
	U []float64 // mean velocity

	k float64 // sqrt(β/(2ρ)), the wave speed per A^{1/4}
}

// NewSegment creates a segment at rest (A = A0, U = 0).
func NewSegment(name string, l float64, n int, a0, beta, rho, kr float64) *Segment {
	if n < 3 || l <= 0 || a0 <= 0 || beta <= 0 || rho <= 0 {
		panic(fmt.Sprintf("nektar1d: bad segment %q (L=%v N=%d A0=%v beta=%v rho=%v)", name, l, n, a0, beta, rho))
	}
	s := &Segment{Name: name, L: l, N: n, A0: a0, Beta: beta, Rho: rho, Kr: kr, k: math.Sqrt(beta / (2 * rho))}
	s.A = make([]float64, n)
	s.U = make([]float64, n)
	for i := range s.A {
		s.A[i] = a0
	}
	return s
}

// Dx returns the grid spacing.
func (s *Segment) Dx() float64 { return s.L / float64(s.N-1) }

// Pressure returns the tube-law pressure at node i.
func (s *Segment) Pressure(i int) float64 {
	return s.Beta * (math.Sqrt(s.A[i]) - math.Sqrt(s.A0))
}

// WaveSpeed returns the local characteristic speed c = sqrt(β/(2ρ)) A^{1/4}.
// The fourth root is two square roots, each correctly rounded: closer to the
// true value than math.Pow's exp(log(a)/4), and an order of magnitude cheaper
// in the call every node of every step makes.
func (s *Segment) WaveSpeed(a float64) float64 {
	return s.k * math.Sqrt(math.Sqrt(a))
}

// Flow returns the volumetric flow rate Q = A U at node i.
func (s *Segment) Flow(i int) float64 { return s.A[i] * s.U[i] }

// Volume returns the integrated segment volume (trapezoid rule).
func (s *Segment) Volume() float64 {
	dx := s.Dx()
	var v float64
	for i := 0; i < s.N-1; i++ {
		v += 0.5 * (s.A[i] + s.A[i+1]) * dx
	}
	return v
}

// charPlus evaluates the forward Riemann invariant W1 = U + 4c.
func (s *Segment) charPlus(a, u float64) float64 { return u + 4*s.WaveSpeed(a) }

// charMinus evaluates the backward Riemann invariant W2 = U - 4c.
func (s *Segment) charMinus(a, u float64) float64 { return u - 4*s.WaveSpeed(a) }

// fluxes computes the conservative fluxes F_A = AU and the momentum term
// F_U = U²/2 + p/ρ at node values (a, u).
func (s *Segment) fluxes(a, u float64) (fa, fu float64) {
	p := s.Beta * (math.Sqrt(a) - math.Sqrt(s.A0))
	return a * u, u*u/2 + p/s.Rho
}

// interiorStep advances the interior nodes with MacCormack; boundary nodes
// are filled by the network's characteristic treatment afterwards. aNew/uNew
// and the predictor scratch ap/up must have length N.
func (s *Segment) interiorStep(dt float64, aNew, uNew, ap, up []float64) {
	n := s.N
	dx := s.Dx()
	r := dt / dx
	// Predictor (forward differences).
	for i := 0; i < n-1; i++ {
		fa0, fu0 := s.fluxes(s.A[i], s.U[i])
		fa1, fu1 := s.fluxes(s.A[i+1], s.U[i+1])
		ap[i] = s.A[i] - r*(fa1-fa0)
		up[i] = s.U[i] - r*(fu1-fu0) - dt*s.Kr*s.U[i]/s.A[i]
	}
	ap[n-1] = s.A[n-1]
	up[n-1] = s.U[n-1]
	// Corrector (backward differences on predicted values).
	for i := 1; i < n-1; i++ {
		fa0, fu0 := s.fluxes(ap[i-1], up[i-1])
		fa1, fu1 := s.fluxes(ap[i], up[i])
		aNew[i] = 0.5*(s.A[i]+ap[i]) - 0.5*r*(fa1-fa0)
		uNew[i] = 0.5*(s.U[i]+up[i]) - 0.5*r*(fu1-fu0) - 0.5*dt*s.Kr*up[i]/ap[i]
	}
	aNew[0], uNew[0] = s.A[0], s.U[0]
	aNew[n-1], uNew[n-1] = s.A[n-1], s.U[n-1]
}

// MaxCFL returns the largest |U|+c over the segment times dt/dx; stability
// needs it below 1.
func (s *Segment) MaxCFL(dt float64) float64 {
	var m float64
	for i := 0; i < s.N; i++ {
		v := math.Abs(s.U[i]) + s.WaveSpeed(s.A[i])
		if v > m {
			m = v
		}
	}
	return m * dt / s.Dx()
}
