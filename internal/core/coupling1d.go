package core

import (
	"fmt"

	"nektarg/internal/audit"
	"nektarg/internal/nektar1d"
)

// The paper's metasolver couples "3D domains to a number of 1D domains" so
// that peripheral arterial networks invisible to the scanners absorb the
// outflow of the imaged 3D region. OutletTo1D implements that coupling mode:
// at every exchange the volumetric flow rate through one outflow face of a
// continuum patch becomes the inflow of a NεκTαr-1D network, and the
// network's inlet pressure is reported back as the patch's downstream
// impedance diagnostic. An outlet listed in Metasolver.Outlets is stepped by
// Advance once per exchange period with OutletDt1D.
type OutletTo1D struct {
	Patch *ContinuumPatch
	Face  string // outflow face of the patch ("x1", "y0", ...)
	// Network is the peripheral 1D tree; Inlet must belong to it.
	Network *nektar1d.Network
	Inlet   *nektar1d.Inlet
	// AreaScale converts the face-integrated 3D flow (continuum units) to
	// the 1D solver's flow units; 0 means 1.
	AreaScale float64

	// Aud is the optional physics audit ledger. When set, every Exchange
	// feeds two budgets: the network's mass-balance invariant
	// (1d.mass:<outlet>, TotalVolume − ∫Q_in + ∫Q_out including the
	// windkessel terminal outflow) and the 1D↔3D flow-rate mismatch
	// (q.match:<outlet>, realized 1D inlet flow vs the commanded 3D outlet
	// flow). Nil disables both at nil-receiver cost.
	Aud *audit.Ledger

	// lastQ is the most recent flow rate handed to the 1D side.
	lastQ float64
}

// OutletDt1D is the NεκTαr-1D sub-step Advance uses for registered outlets.
const OutletDt1D = 5e-5

// Name identifies the outlet as "<patch>:<face>": its audit budgets, its
// network's telemetry/watchdog track ("1d:<name>") and checkpoint key.
func (c *OutletTo1D) Name() string { return c.Patch.Name + ":" + c.Face }

// NewOutletTo1D wires a patch face to a 1D network inlet. The inlet's Q
// function is replaced by the coupled flow rate.
func NewOutletTo1D(patch *ContinuumPatch, face string, net *nektar1d.Network, inlet *nektar1d.Inlet, areaScale float64) (*OutletTo1D, error) {
	if areaScale == 0 {
		areaScale = 1
	}
	found := false
	for _, in := range net.Inlets {
		if in == inlet {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("core: inlet does not belong to the network")
	}
	c := &OutletTo1D{Patch: patch, Face: face, Network: net, Inlet: inlet, AreaScale: areaScale}
	inlet.Q = func(float64) float64 { return c.lastQ }
	return c, nil
}

// FaceFlow integrates the normal velocity over the patch face with the
// face's quadrature weights, returning the volumetric flow rate out of the
// patch.
func (c *OutletTo1D) FaceFlow() float64 {
	s := c.Patch.Solver
	g := s.G
	var normalField []float64
	var sign float64
	switch c.Face {
	case "x0", "x1":
		normalField = s.U
		sign = 1
		if c.Face == "x0" {
			sign = -1
		}
	case "y0", "y1":
		normalField = s.V
		sign = 1
		if c.Face == "y0" {
			sign = -1
		}
	case "z0", "z1":
		normalField = s.W
		sign = 1
		if c.Face == "z0" {
			sign = -1
		}
	default:
		panic(fmt.Sprintf("core: unknown face %q", c.Face))
	}
	trace := g.FaceTrace(normalField, c.Face)
	weights := g.FaceQuadrature(c.Face)
	var q float64
	for i, v := range trace {
		q += weights[i] * v
	}
	return sign * q
}

// Exchange transfers one coupling step: sample the 3D flow, hand it to the
// 1D inlet, advance the 1D network to the patch's current time, and return
// the 1D inlet pressure.
func (c *OutletTo1D) Exchange(dt1D float64) (q float64, inletPressure float64, err error) {
	c.lastQ = c.FaceFlow() * c.AreaScale
	target := c.Patch.Solver.Time
	for c.Network.Time < target {
		step := dt1D
		if c.Network.Time+step > target {
			step = target - c.Network.Time
		}
		if step <= 0 {
			break
		}
		if err := c.Network.Step(step); err != nil {
			return c.lastQ, 0, fmt.Errorf("core: 1D network: %w", err)
		}
	}
	c.auditExchange()
	return c.lastQ, c.Inlet.Seg.Pressure(0), nil
}

// auditExchange feeds the coupling's two audit budgets after the network
// has caught up to the patch time.
func (c *OutletTo1D) auditExchange() {
	if c.Aud == nil {
		return
	}
	id := c.Name()
	// The discrete invariant of a conservative scheme: current stored
	// volume minus everything admitted plus everything discharged stays at
	// the initial volume (up to truncation error). A drift budget watches
	// both step jumps and the slow leak of the adapting reference.
	c.Aud.ObserveDrift("1d.mass:"+id, c.Network.TotalVolume()-c.Network.InVol+c.Network.OutVol)
	// The realized inflow at the 1D inlet node versus the flow the 3D face
	// commanded: a mismatch is a coupling-application defect.
	c.Aud.ObserveResidual("q.match:"+id, c.Inlet.Seg.Flow(0)-c.lastQ, c.lastQ)
}
