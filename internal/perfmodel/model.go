// Package perfmodel replays the paper's performance experiments (Tables 2-5
// and the §4.1 extended weak-scaling claims). Absolute times cannot be
// measured without a Blue Gene/P, so each machine model is an analytic cost
// model — an Amdahl-style compute + non-scalable-solver split plus a
// load-imbalance (straggler) term — whose two or three coefficients are
// calibrated against reference rows of the paper's tables; every other cell
// is then *predicted* by the model, and the comparisons in EXPERIMENTS.md
// report how well the predicted shape (efficiencies, crossovers,
// superlinearity) tracks the published one.
package perfmodel

import (
	"fmt"
	"math"
)

// ContinuumModel predicts NεκTαr-3D multi-patch time per 1000 steps.
//
//	t(np, c) = base(c) + imbalance(np, base)
//	base(c)  = PerElem * workFactor(P) * E/c + Serial
//
// PerElem is the per-(element/core) cost of the order-10 reference
// discretization; Serial is the non-scalable part ("effective
// preconditioners ... are typically not scalable on more than a thousand of
// processors"); the imbalance term models the slowest-patch straggler
// effect that grows with the number of loosely coupled patches.
type ContinuumModel struct {
	PerElem float64 // seconds per (element/core) per 1000 steps at P=10
	Serial  float64 // seconds per 1000 steps
	// Jitter is the straggler magnitude as a fraction of base; the BG/P
	// imbalance grows like the expected maximum of np samples, √(2 ln np).
	Jitter float64
	// LinearContention, when nonzero, replaces the straggler law with a
	// linear-in-np network contention term (Cray XT5 behaviour).
	LinearContention float64 // seconds per patch per 1000 steps
	// RefOrder is the polynomial order the coefficients were calibrated at.
	RefOrder int
}

// workFactor scales per-element work from the calibration order to order p
// (tensor-product storage (p+1)(p+2)(p+3) dominates the element kernels).
func (m *ContinuumModel) workFactor(p int) float64 {
	ref := float64((m.RefOrder + 1) * (m.RefOrder + 2) * (m.RefOrder + 3))
	return float64((p+1)*(p+2)*(p+3)) / ref
}

// Base returns base(c) for a patch of elementsPerPatch order-p elements on
// coresPerPatch cores.
func (m *ContinuumModel) Base(elementsPerPatch, coresPerPatch, p int) float64 {
	if coresPerPatch < 1 {
		panic(fmt.Sprintf("perfmodel: coresPerPatch = %d", coresPerPatch))
	}
	return m.PerElem*m.workFactor(p)*float64(elementsPerPatch)/float64(coresPerPatch) + m.Serial
}

// Time returns the predicted wall-clock seconds per 1000 time steps for np
// patches of elementsPerPatch elements each, coresPerPatch cores per patch,
// polynomial order p.
func (m *ContinuumModel) Time(np, elementsPerPatch, coresPerPatch, p int) float64 {
	if np < 1 {
		panic(fmt.Sprintf("perfmodel: np = %d", np))
	}
	base := m.Base(elementsPerPatch, coresPerPatch, p)
	switch {
	case m.LinearContention > 0:
		return base + float64(m.LinearContention*float64(np))
	default:
		return base + float64(m.Jitter*base*math.Sqrt(2*math.Log(float64(np))))
	}
}

// WeakEfficiency returns t(npRef)/t(np) at fixed cores per patch.
func (m *ContinuumModel) WeakEfficiency(npRef, np, elementsPerPatch, coresPerPatch, p int) float64 {
	return m.Time(npRef, elementsPerPatch, coresPerPatch, p) /
		m.Time(np, elementsPerPatch, coresPerPatch, p)
}

// StrongEfficiency returns the efficiency of doubling cores per patch:
// t(c)/(2 t(2c)).
func (m *ContinuumModel) StrongEfficiency(np, elementsPerPatch, coresPerPatch, p int) float64 {
	return m.Time(np, elementsPerPatch, coresPerPatch, p) /
		(2 * m.Time(np, elementsPerPatch, 2*coresPerPatch, p))
}

// DPDModel predicts DPD-LAMMPS time: per-particle-step cost grows with the
// per-core particle count through a cache term (fewer particles per core fit
// in cache, hence the superlinear speedups of Table 5):
//
//	τ(n) = TauInf + CacheSlope * n,  n = particles/core
//	T    = τ(n) * n * steps
type DPDModel struct {
	TauInf     float64 // asymptotic per-particle-step seconds
	CacheSlope float64 // extra seconds per particle-step per resident particle
}

// Time returns seconds for the given particle count, cores and steps.
func (m *DPDModel) Time(particles float64, cores, steps int) float64 {
	if cores < 1 || steps < 0 {
		panic(fmt.Sprintf("perfmodel: cores=%d steps=%d", cores, steps))
	}
	n := particles / float64(cores)
	tau := m.TauInf + float64(m.CacheSlope*n)
	return tau * n * float64(steps)
}

// Machine bundles the calibrated models of one platform.
type Machine struct {
	Name      string
	Continuum ContinuumModel
	DPD       DPDModel
	// CouplingExchange is the per-exchange cost of the continuum-atomistic
	// interface transfer (root gather + p2p + scatter), seconds.
	CouplingExchange float64
}

// CoupledTime predicts the Table 5 quantity: wall-clock seconds for
// dpdSteps DPD steps of the coupled simulation with the given DPD core
// count. The continuum side (fixed cores) runs concurrently and is absorbed
// in the DPD time when the DPD side dominates; interface exchanges occur
// every exchangeEvery DPD steps.
func (ma *Machine) CoupledTime(particles float64, dpdCores, dpdSteps, exchangeEvery int) float64 {
	t := ma.DPD.Time(particles, dpdCores, dpdSteps)
	if exchangeEvery > 0 {
		t += float64(float64(dpdSteps/exchangeEvery) * ma.CouplingExchange)
	}
	return t
}

// BGP returns the Blue Gene/P model. Calibration (see EXPERIMENTS.md):
// continuum PerElem and Serial from Table 4's 3-patch rows at 1024 and 2048
// cores/patch; Jitter from Table 3's 3->8 patch weak-scaling row; DPD TauInf
// and CacheSlope from Table 5's first and last BG/P rows.
func BGP() *Machine {
	return &Machine{
		Name: "BlueGene/P",
		Continuum: ContinuumModel{
			PerElem:  34.84,
			Serial:   261.5,
			Jitter:   0.111,
			RefOrder: 10,
		},
		DPD: DPDModel{
			TauInf:     2.502e-5,
			CacheSlope: 1.003e-10,
		},
		CouplingExchange: 5e-3,
	}
}

// XT5 returns the Cray XT5 model. Calibration: continuum from Table 3's XT5
// rows (base split assumed proportional to BG/P's, linear contention fitted
// to the 3->8 patch delta); DPD from Table 5's two published XT5 rows.
func XT5() *Machine {
	return &Machine{
		Name: "Cray XT5",
		Continuum: ContinuumModel{
			PerElem:          28.27,
			Serial:           212.2,
			LinearContention: 2.98,
			RefOrder:         10,
		},
		DPD: DPDModel{
			TauInf:     4.5055e-6,
			CacheSlope: 1.4713e-10,
		},
		CouplingExchange: 2e-3,
	}
}

// PaperDPDParticles is the Table 5 workload: "Total number of DPD particles:
// 823,079,981."
const PaperDPDParticles = 823079981
