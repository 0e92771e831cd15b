package mesh

import "fmt"

// PatchSpec describes one patch Ωj of a multi-patch decomposition: the
// paper's Tables 3-4 use patches of 17,474 tetrahedra connected by
// one-element-wide overlap regions of 1,114 tetrahedra.
type PatchSpec struct {
	Name     string
	Elements int
}

// PatchInterface is one artificial interface between two overlapping
// patches: OverlapElements is the size of the shared one-element-wide
// region, InterfaceFaces the number of triangular faces on the artificial
// inlet/outlet through which the interface condition trace flows.
type PatchInterface struct {
	A, B            int // patch indices
	OverlapElements int
	InterfaceFaces  int
}

// MultiPatchDomain is the loosely coupled decomposition of a large arterial
// domain Ω into patches Ωj (§3.2).
type MultiPatchDomain struct {
	Patches    []PatchSpec
	Interfaces []PatchInterface
	// ExternalInlets/ExternalOutlets count physical boundaries of Ω where
	// patient-specific or RC boundary conditions apply.
	ExternalInlets  int
	ExternalOutlets int
}

// Paper constants for the scaling studies: "Each Ωi is composed of 17,474
// tetrahedral elements, while the one element-wide overlapping regions
// contain 1,114 tetrahedral elements."
const (
	PaperPatchElements   = 17474
	PaperOverlapElements = 1114
)

// ChainDomain builds an np-patch domain coupled in a chain, the layout of the
// weak/strong scaling experiments (a long arterial segment subdivided into
// overlapping patches). Each interior connection adds one artificial
// inlet/outlet pair.
func ChainDomain(np, elementsPerPatch, overlapElements int) *MultiPatchDomain {
	if np < 1 {
		panic(fmt.Sprintf("mesh: ChainDomain needs >= 1 patch, got %d", np))
	}
	d := &MultiPatchDomain{ExternalInlets: 1, ExternalOutlets: 1}
	for i := 0; i < np; i++ {
		d.Patches = append(d.Patches, PatchSpec{
			Name:     fmt.Sprintf("patch%d", i),
			Elements: elementsPerPatch,
		})
	}
	// Faces on an artificial interface: the overlap region is one element
	// wide, so roughly half its elements expose a face on each side.
	faces := overlapElements / 2
	if faces < 1 {
		faces = 1
	}
	for i := 0; i+1 < np; i++ {
		d.Interfaces = append(d.Interfaces, PatchInterface{
			A: i, B: i + 1, OverlapElements: overlapElements, InterfaceFaces: faces,
		})
	}
	return d
}

// TotalElements returns the element count over all patches (overlaps counted
// once per owning patch, as in the solver's storage).
func (d *MultiPatchDomain) TotalElements() int {
	var n int
	for _, p := range d.Patches {
		n += p.Elements
	}
	return n
}

// DOF returns the global number of degrees of freedom for polynomial order p
// with nFields coupled fields (3 velocity components + pressure = 4), counted
// as the (p+1)(p+2)(p+3) tensor-product storage per element that NεκTαr's
// collapsed-coordinate expansion allocates — this reproduces the paper's
// numbers (3 patches at P=10 ≈ 0.38 billion DOF).
func (d *MultiPatchDomain) DOF(p, nFields int) float64 {
	perElem := float64((p + 1) * (p + 2) * (p + 3))
	return float64(d.TotalElements()) * perElem * float64(nFields)
}
