package nektar1d

import (
	"fmt"
	"math"
)

// TreeSpec parameterizes a self-similar peripheral arterial tree — the
// paper's mesovascular network (MeN): "small arteries and arterioles ...
// which follow a tree-like structure governed by specific fractal laws".
type TreeSpec struct {
	// Generations of symmetric bifurcations below the root (root counts as
	// generation 0); the tree has 2^Generations terminal segments.
	Generations int
	// RootArea and RootLength size the root segment.
	RootArea, RootLength float64
	// AreaExponent gamma sets the daughter/parent radius law
	// r_d = r_p / 2^{1/gamma}; gamma = 3 is Murray's law (cube law), so
	// the total daughter area expands by 2^{1-2/gamma} per generation.
	AreaExponent float64
	// LengthRatio scales segment length per generation (typically < 1).
	LengthRatio float64
	// Beta, Rho, Kr are the tube-law and fluid parameters of every
	// segment; NodesPerSegment the spatial resolution.
	Beta, Rho, Kr   float64
	NodesPerSegment int
	// TerminalR, TerminalC are the windkessel parameters of each terminal
	// outlet.
	TerminalR, TerminalC float64
}

// DefaultTreeSpec returns physiological-ish defaults for a g-generation
// tree.
func DefaultTreeSpec(generations int) TreeSpec {
	return TreeSpec{
		Generations:     generations,
		RootArea:        0.8,
		RootLength:      10,
		AreaExponent:    3, // Murray's law
		LengthRatio:     0.8,
		Beta:            4e4,
		Rho:             1.06,
		Kr:              8,
		NodesPerSegment: 41,
		TerminalR:       400,
		TerminalC:       2.5e-4,
	}
}

// BuildFractalTree constructs the network: a root segment with an inlet,
// Generations levels of symmetric bifurcations, and windkessel outlets at
// every terminal. The inlet's Q function is left nil for the caller to set.
func BuildFractalTree(spec TreeSpec) (*Network, *Inlet, error) {
	if spec.Generations < 0 {
		return nil, nil, fmt.Errorf("nektar1d: %d generations", spec.Generations)
	}
	if spec.AreaExponent <= 0 || spec.LengthRatio <= 0 {
		return nil, nil, fmt.Errorf("nektar1d: bad fractal ratios %+v", spec)
	}
	net := &Network{}
	// Daughter/parent area ratio per bifurcation, from the radius law.
	areaRatio := math.Pow(2, -2/spec.AreaExponent)

	var build func(name string, gen int, area, length float64) *Segment
	build = func(name string, gen int, area, length float64) *Segment {
		seg := net.AddSegment(NewSegment(name, length, spec.NodesPerSegment,
			area, spec.Beta, spec.Rho, spec.Kr))
		if gen == spec.Generations {
			net.Outlets = append(net.Outlets, &Outlet{
				Seg: seg,
				WK:  NewWindkessel(spec.TerminalR, spec.TerminalC),
			})
			return seg
		}
		childArea := area * areaRatio
		childLen := length * spec.LengthRatio
		left := build(name+"L", gen+1, childArea, childLen)
		right := build(name+"R", gen+1, childArea, childLen)
		net.Junctions = append(net.Junctions, &Junction{
			Parent:   seg,
			Children: []*Segment{left, right},
		})
		return seg
	}
	root := build("root", 0, spec.RootArea, spec.RootLength)
	inlet := &Inlet{Seg: root}
	net.Inlets = append(net.Inlets, inlet)
	return net, inlet, nil
}

// TotalResistance estimates the tree's steady Poiseuille resistance seen
// from the root (series segment resistances R = 8πμ_eff L/A² with
// μ_eff = Kr ρ / (8π) ... folded as R = ρ Kr L / A², combined through the
// symmetric bifurcations, terminated by the windkessel R).
func TotalResistance(spec TreeSpec) float64 {
	var level func(gen int, area, length float64) float64
	level = func(gen int, area, length float64) float64 {
		r := spec.Rho * spec.Kr * length / (area * area)
		if gen == spec.Generations {
			return r + spec.TerminalR
		}
		areaRatio := math.Pow(2, -2/spec.AreaExponent)
		child := level(gen+1, area*areaRatio, length*spec.LengthRatio)
		return r + float64(child/2) // two identical children in parallel
	}
	return level(0, spec.RootArea, spec.RootLength)
}
