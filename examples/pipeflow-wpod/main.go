// Pipeflow-WPOD: the window proper orthogonal decomposition experiments of
// §3.4 (Figures 7 and 8).
//
// A DPD pipe flow driven by a time-periodic body force (Figure 8's setup) is
// sampled into bin-averaged velocity snapshots every Nts steps. The WPOD of
// the snapshot window separates the eigenspectrum into fast-decaying
// correlated modes (the ensemble average) and the flat thermal tail; the
// program prints the eigenspectra of the streamwise and transverse velocity
// components, the profile reconstructed from the leading modes, the accuracy
// gain over standard averaging, and the PDF of the extracted fluctuations
// against a Gaussian fit (Figure 7). Healthy and diseased RBC membranes
// suspended in the flow reproduce the two cell populations of Figure 7.
//
// Run: go run ./examples/pipeflow-wpod [-snapshots N] [-nts N] [-rbc]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/rbc"
	"nektarg/internal/stats"
	"nektarg/internal/wpod"
)

func main() {
	nSnap := flag.Int("snapshots", 60, "POD window length (snapshots)")
	nts := flag.Int("nts", 50, "time steps averaged per snapshot")
	withRBC := flag.Bool("rbc", true, "suspend healthy and diseased RBCs in the flow")
	flag.Parse()

	// Pipe of radius 3 along z, periodic axially.
	const (
		radius = 3.0
		length = 6.0
		rho    = 3.0
	)
	params := dpd.DefaultParams(2) // species 0: solvent, 1: membrane
	params.Dt = 0.0025
	params.KBT = 0.4
	sys, err := dpd.NewSystem(params,
		geometry.Vec3{X: -radius - 0.5, Y: -radius - 0.5, Z: 0},
		geometry.Vec3{X: radius + 0.5, Y: radius + 0.5, Z: length},
		[3]bool{false, false, true})
	if err != nil {
		log.Fatal(err)
	}
	sys.Walls = []dpd.Wall{&dpd.CylinderWall{Center: geometry.Vec3{}, Radius: radius}}

	// Seed solvent only inside the pipe.
	target := int(math.Floor(rho * math.Pi * radius * radius * length))
	for len(sys.Particles) < target {
		sys.FillRandom(1, 0)
		p := sys.Particles[len(sys.Particles)-1].Pos
		if math.Hypot(p.X, p.Y) > radius-0.2 {
			sys.Particles = sys.Particles[:len(sys.Particles)-1]
		}
	}

	// Time-periodic driving force along z: "3D pipe flow driven by a
	// time-periodic force" (Figure 8).
	const (
		f0    = 0.35
		omega = 2 * math.Pi / 5.0
	)
	sys.External = func(t float64, _ *dpd.Particle) geometry.Vec3 {
		return geometry.Vec3{Z: f0 * (1 + float64(0.8*math.Sin(omega*t)))}
	}

	var cells []*rbc.Membrane
	if *withRBC {
		cells = append(cells,
			rbc.NewMembrane(sys, geometry.Vec3{X: 0.8, Y: 0, Z: 1.5}, 0.9, 1, 1, rbc.Healthy(), 0.8),
			rbc.NewMembrane(sys, geometry.Vec3{X: -0.8, Y: 0.5, Z: 4.0}, 0.9, 1, 1, rbc.Diseased(), 0.8),
		)
		fmt.Printf("suspended %d RBCs (healthy + diseased, %d vertices each)\n",
			len(cells), len(cells[0].Idx))
	}
	fmt.Printf("pipe: R=%.1f L=%.1f, %d particles, dt=%.3f\n", radius, length, len(sys.Particles), params.Dt)

	// Equilibrate and develop the flow.
	sys.Run(1200)

	// Bins across the pipe diameter (x) at cell-free resolution ~rc.
	nbinsX := int(2 * radius)
	bins := dpd.NewBinGrid(
		geometry.Vec3{X: -radius, Y: -0.75, Z: 0},
		geometry.Vec3{X: radius, Y: 0.75, Z: length},
		nbinsX, 1, 3)

	snapsZ := make([][]float64, 0, *nSnap) // streamwise component
	snapsX := make([][]float64, 0, *nSnap) // transverse component
	for k := 0; k < *nSnap; k++ {
		for s := 0; s < *nts; s++ {
			sys.VVStep()
			bins.Accumulate(sys)
		}
		snap := bins.Snapshot()
		snapsZ = append(snapsZ, dpd.Component(snap, 2))
		snapsX = append(snapsX, dpd.Component(snap, 0))
	}

	rz, err := wpod.Analyze(snapsZ, wpod.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rx, err := wpod.Analyze(snapsX, wpod.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nFigure 8: POD eigenspectra (Nts=%d, Npod=%d)\n", *nts, *nSnap)
	fmt.Printf("%4s %14s %14s\n", "k", "lambda_z", "lambda_x")
	for k := 0; k < 10 && k < len(rz.Eigenvalues); k++ {
		fmt.Printf("%4d %14.5e %14.5e\n", k+1, rz.Eigenvalues[k], rx.Eigenvalues[k])
	}
	fmt.Printf("adaptive cutoffs: streamwise %d modes, transverse %d modes\n", rz.Cutoff, rx.Cutoff)
	fmt.Printf("spectral separation lambda_1/lambda_%d (streamwise): %.1fx\n",
		rz.Cutoff+1, rz.Eigenvalues[0]/rz.Eigenvalues[rz.Cutoff])

	// Profile reconstructed with the first two modes (Figure 8, top right);
	// averaged over the last quarter of the window to suppress bin noise.
	rec := rz.Reconstruct(2)
	fmt.Println("\nvelocity profile u_z(x) reconstructed from 2 POD modes:")
	q := len(rec) / 4
	for i := 0; i < nbinsX; i++ {
		x := -radius + (float64(i)+0.5)*2*radius/float64(nbinsX)
		var v float64
		var n int
		for t := len(rec) - q; t < len(rec); t++ {
			for k := 0; k < 3; k++ {
				v += rec[t][i+nbinsX*k]
				n++
			}
		}
		fmt.Printf("  x=%5.2f  u_z=%7.4f\n", x, v/float64(n))
	}

	// Figure 7: fluctuation PDF vs Gaussian.
	flucts := rz.Fluctuations()
	var mom stats.Moments
	for _, row := range flucts {
		mom.AddAll(row)
	}
	sigma := mom.StdDev()
	h := stats.NewHistogram(-4*sigma, 4*sigma, 40)
	for _, row := range flucts {
		h.AddAll(row)
	}
	fmt.Printf("\nFigure 7: PDF of streamwise velocity fluctuations\n")
	fmt.Printf("sigma = %.3f (paper reports a Gaussian with sigma = 1.03 in its units)\n", sigma)
	fmt.Printf("L2 distance to Gaussian(0, sigma): %.4f (to a 2.5x-wrong Gaussian: %.4f)\n",
		h.L2PDFDistance(0, sigma), h.L2PDFDistance(0, 2.5*sigma))

	// WPOD vs standard averaging: reconstruction tracks the time-varying
	// forcing, the long-time mean cannot.
	mean := bins.MeanVelocity()
	meanZ := dpd.Component(mean, 2)
	var stdErr, wpodSpread float64
	for t := range snapsZ {
		stdErr += stats.RMSE(meanZ, snapsZ[t])
		wpodSpread += stats.RMSE(rec[t], snapsZ[t])
	}
	fmt.Printf("\nresidual |snapshot - estimate| (lower = better tracking of u(t,x)):\n")
	fmt.Printf("  standard averaging: %.4f\n  WPOD (cutoff %d):    %.4f\n",
		stdErr/float64(len(snapsZ)), rz.Cutoff, wpodSpread/float64(len(snapsZ)))
}
