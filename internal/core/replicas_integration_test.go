package core

import (
	"math"
	"testing"

	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/mci"
	"nektarg/internal/mpi"
)

// TestReplicaEnsembleReducesNoise reproduces §3.4's premise end to end:
// DPD-LAMMPS "is capable to replicate the computational domain and solve an
// array of problems defined in the same domain but with different random
// forcing. Averaging solutions obtained at each domain replica improves the
// accuracy" by ~√Nr. Four replicas of a quiescent DPD box run on four ranks
// of an L3 group; the replica-averaged bin velocities (collected through the
// mci replica collectives) must be substantially less noisy than a single
// replica's, and every replica must receive the identical averaged field.
func TestReplicaEnsembleReducesNoise(t *testing.T) {
	const (
		nReplicas = 4
		nBins     = 27
	)
	cfg := mci.Config{Tasks: []mci.TaskSpec{{Name: "dpd", Ranks: nReplicas}}}
	err := mpi.Run(nReplicas, func(w *mpi.Comm) {
		h, err := mci.Build(w, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		rs, err := mci.SplitReplicas(h.L3, nReplicas)
		if err != nil {
			t.Error(err)
			return
		}

		// Each replica: same domain, different random forcing (seed).
		p := dpd.DefaultParams(1)
		p.Dt = 0.01
		p.Seed = uint64(1000 + rs.Index) // "different random forcing"
		sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 3, Y: 3, Z: 3}, [3]bool{true, true, true}))(t)
		sys.FillRandom(81, 0)
		sys.Run(100)

		bins := dpd.NewBinGrid(geometry.Vec3{}, geometry.Vec3{X: 3, Y: 3, Z: 3}, 3, 3, 3)
		for i := 0; i < 50; i++ {
			sys.Run(2)
			bins.Accumulate(sys)
		}
		local := dpd.Component(bins.MeanVelocity(), 0)
		if len(local) != nBins {
			t.Errorf("bins = %d", len(local))
			return
		}

		avg := rs.Average(local)

		// The true mean velocity is zero (quiescent box); RMS of the field
		// is pure sampling noise. Averaging Nr independent replicas must
		// reduce it; the √Nr law holds statistically, so accept ≥ 1.4x
		// for Nr = 4.
		rmsOf := func(v []float64) float64 {
			var s float64
			for _, x := range v {
				s += x * x
			}
			return math.Sqrt(s / float64(len(v)))
		}
		localRMS := rmsOf(local)
		avgRMS := rmsOf(avg)
		// Gather every replica's ratio on the master for a robust check.
		ratios := h.L3.Allreduce([]float64{localRMS / math.Max(avgRMS, 1e-300)}, mpi.Sum)
		meanRatio := ratios[0] / nReplicas
		if rs.IsMaster() && rs.Replica.Rank() == 0 {
			t.Logf("replica noise ratio (single/averaged): %.2f (√Nr = %.2f)", meanRatio, math.Sqrt(nReplicas))
			if meanRatio < 1.4 {
				t.Errorf("replica averaging gave only %.2fx noise reduction", meanRatio)
			}
		}

		// All replicas must hold the identical averaged field.
		sum := h.L3.Allreduce(avg, mpi.Sum)
		for i := range avg {
			if math.Abs(sum[i]-float64(nReplicas)*avg[i]) > 1e-9*(1+math.Abs(sum[i])) {
				t.Errorf("averaged fields differ across replicas at bin %d", i)
				return
			}
		}

		// MasterBcast: the master's field reaches every slave verbatim.
		var payload []float64
		if rs.IsMaster() {
			payload = local
		}
		got := rs.MasterBcast(payload)
		if len(got) != nBins {
			t.Errorf("bcast payload length %d", len(got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplicaSeedsActuallyDiffer guards the premise of the ensemble: two
// replicas with different seeds must produce different trajectories, and
// with equal seeds identical ones.
func TestReplicaSeedsActuallyDiffer(t *testing.T) {
	run := func(seed uint64) geometry.Vec3 {
		p := dpd.DefaultParams(1)
		p.Seed = seed
		sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 3, Y: 3, Z: 3}, [3]bool{true, true, true}))(t)
		sys.FillRandom(50, 0)
		sys.Run(20)
		return sys.Particles[0].Pos
	}
	a := run(1)
	b := run(2)
	c := run(1)
	if a.Sub(b).Norm() < 1e-12 {
		t.Fatal("different seeds gave identical trajectories")
	}
	if a.Sub(c).Norm() != 0 {
		t.Fatal("equal seeds gave different trajectories")
	}
}
