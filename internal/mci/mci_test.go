package mci

import (
	"math"
	"testing"

	"nektarg/internal/mpi"
)

func TestBuildAssignsEveryRankToOneL3(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{{"patch0", 3}, {"patch1", 3}, {"dpd", 2}}}
	err := mpi.Run(8, func(w *mpi.Comm) {
		h, err := Build(w, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if h.L3 == nil {
			t.Errorf("rank %d unassigned", w.Rank())
			return
		}
		wantTask := 0
		switch {
		case w.Rank() >= 6:
			wantTask = 2
		case w.Rank() >= 3:
			wantTask = 1
		}
		if h.Task != wantTask {
			t.Errorf("rank %d task %d want %d", w.Rank(), h.Task, wantTask)
		}
		wantSize := 3
		if wantTask == 2 {
			wantSize = 2
		}
		if h.L3.Size() != wantSize {
			t.Errorf("rank %d L3 size %d want %d", w.Rank(), h.L3.Size(), wantSize)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildLeavesExtraRanksIdle(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{{"solo", 2}}}
	err := mpi.Run(4, func(w *mpi.Comm) {
		h, err := Build(w, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if w.Rank() < 2 && h.L3 == nil {
			t.Errorf("rank %d should be assigned", w.Rank())
		}
		if w.Rank() >= 2 && h.L3 != nil {
			t.Errorf("rank %d should be idle", w.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsOversubscription(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{{"big", 10}}}
	err := mpi.Run(4, func(w *mpi.Comm) {
		if _, err := Build(w, cfg); err == nil {
			t.Error("expected oversubscription error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInterfaceGroupRootDiscovery(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{{"patch", 6}}}
	err := mpi.Run(6, func(w *mpi.Comm) {
		h, err := Build(w, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		// Ranks 2 and 4 touch the interface.
		member := w.Rank() == 2 || w.Rank() == 4
		g, err := NewInterfaceGroup(h, "inlet", member)
		if err != nil {
			t.Error(err)
			return
		}
		if g.RootWorld != 2 {
			t.Errorf("rank %d sees root %d, want 2", w.Rank(), g.RootWorld)
		}
		if member && (g.L4 == nil || g.L4.Size() != 2) {
			t.Errorf("rank %d: bad L4", w.Rank())
		}
		if !member && g.L4 != nil {
			t.Errorf("rank %d: non-member got L4", w.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestThreeStepExchangeDeliversInterfacePayloads(t *testing.T) {
	// Two tasks of 4 ranks each. In each task, ranks {1,3} (task-local)
	// are interface members holding 2 values each. The exchange must hand
	// each side the peer's concatenated trace, split by recvCounts.
	cfg := Config{Tasks: []TaskSpec{{"left", 4}, {"right", 4}}}
	err := mpi.Run(8, func(w *mpi.Comm) {
		h, err := Build(w, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		local := h.L3.Rank()
		member := local == 1 || local == 3
		g, err := NewInterfaceGroup(h, "iface", member)
		if err != nil {
			t.Error(err)
			return
		}
		if !member {
			return
		}
		// Payload encodes task and local rank so ordering is checkable.
		base := float64(100*(h.Task+1) + 10*local)
		mine := []float64{base, base + 1}
		peerRoot := map[int]int{0: 5, 1: 1}[h.Task] // world ranks of peer L4 roots
		got := g.Exchange(h.World, peerRoot, g.Salt(), mine, []int{2, 2})

		peerTask := 1 - h.Task
		// Peer trace order: L4 rank 0 (local rank 1) then L4 rank 1
		// (local rank 3). My slice depends on my L4 rank.
		wantLocal := []int{1, 3}[g.L4.Rank()]
		wantBase := float64(100*(peerTask+1) + 10*wantLocal)
		if len(got) != 2 || got[0] != wantBase || got[1] != wantBase+1 {
			t.Errorf("task %d local %d got %v want base %v", h.Task, local, got, wantBase)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherToRootOrdersByL4Rank(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{{"solo", 5}}}
	err := mpi.Run(5, func(w *mpi.Comm) {
		h, _ := Build(w, cfg)
		member := w.Rank() != 2 // four members
		g, err := NewInterfaceGroup(h, "io", member)
		if err != nil {
			t.Error(err)
			return
		}
		if !member {
			return
		}
		out := g.GatherToRoot([]float64{float64(w.Rank())})
		if g.L4.Rank() == 0 {
			want := []float64{0, 1, 3, 4}
			if len(out) != 4 {
				t.Errorf("gathered %v", out)
				return
			}
			for i := range want {
				if out[i] != want[i] {
					t.Errorf("gathered %v want %v", out, want)
					return
				}
			}
		} else if out != nil {
			t.Errorf("non-root received %v", out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitReplicasShapes(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{{"dpd", 6}}}
	err := mpi.Run(6, func(w *mpi.Comm) {
		h, _ := Build(w, cfg)
		rs, err := SplitReplicas(h.L3, 3)
		if err != nil {
			t.Error(err)
			return
		}
		if rs.Replica.Size() != 2 || rs.Peers.Size() != 3 {
			t.Errorf("rank %d: replica size %d peers size %d", w.Rank(), rs.Replica.Size(), rs.Peers.Size())
		}
		if rs.Index != w.Rank()/2 {
			t.Errorf("rank %d: replica index %d", w.Rank(), rs.Index)
		}
		if rs.IsMaster() != (w.Rank() < 2) {
			t.Errorf("rank %d: master = %v", w.Rank(), rs.IsMaster())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitReplicasRejectsUneven(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{{"dpd", 5}}}
	err := mpi.Run(5, func(w *mpi.Comm) {
		h, _ := Build(w, cfg)
		if _, err := SplitReplicas(h.L3, 3); err == nil {
			t.Error("expected divisibility error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReplicaAverageIsExactMean(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{{"dpd", 6}}}
	err := mpi.Run(6, func(w *mpi.Comm) {
		h, _ := Build(w, cfg)
		rs, _ := SplitReplicas(h.L3, 3)
		// Replica j contributes value 10*j + localRank.
		local := []float64{float64(10*rs.Index + rs.Replica.Rank())}
		avg := rs.Average(local)
		want := float64(10*(0+1+2))/3 + float64(rs.Replica.Rank())
		if math.Abs(avg[0]-want) > 1e-12 {
			t.Errorf("rank %d avg %v want %v", w.Rank(), avg[0], want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMasterBcastReachesSlaves(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{{"dpd", 8}}}
	err := mpi.Run(8, func(w *mpi.Comm) {
		h, _ := Build(w, cfg)
		rs, _ := SplitReplicas(h.L3, 4)
		var data []float64
		if rs.IsMaster() {
			data = []float64{float64(100 + rs.Replica.Rank())}
		}
		got := rs.MasterBcast(data)
		want := float64(100 + rs.Replica.Rank())
		if len(got) != 1 || got[0] != want {
			t.Errorf("rank %d got %v want %v", w.Rank(), got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSaltForStableAndInRange(t *testing.T) {
	names := []string{"", "inlet", "aorta/x1<->patch2/x0", "core/discovery/probe"}
	seen := map[int]string{}
	for _, n := range names {
		s := SaltFor(n)
		if s < 0 || s >= mpi.ReservedTagSpan {
			t.Errorf("SaltFor(%q) = %d out of range", n, s)
		}
		if s != SaltFor(n) {
			t.Errorf("SaltFor(%q) not deterministic", n)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("salt collision between %q and %q", prev, n)
		}
		seen[s] = n
	}
}

func TestRootExchangeRejectsBadSalt(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{{"a", 1}, {"b", 1}}}
	for _, salt := range []int{-1, mpi.ReservedTagSpan} {
		salt := salt
		err := mpi.Run(2, func(w *mpi.Comm) {
			h, _ := Build(w, cfg)
			g, err := NewInterfaceGroup(h, "iface", true)
			if err != nil {
				t.Error(err)
				return
			}
			defer func() {
				if recover() == nil {
					t.Errorf("salt %d did not panic", salt)
				}
			}()
			g.RootExchange(h.World, 1-w.Rank(), salt, []float64{1})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestExchangePayloadsAreIndependent mutates every member's slice of the
// exchanged trace. The scatter step used to hand out sub-slices of the
// root's concatenated receive buffer, so peer members raced on one backing
// array; each member must own its slice. Run with -race.
func TestExchangePayloadsAreIndependent(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{{"left", 3}, {"right", 3}}}
	err := mpi.Run(6, func(w *mpi.Comm) {
		h, err := Build(w, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		g, err := NewInterfaceGroup(h, "iface", true)
		if err != nil {
			t.Error(err)
			return
		}
		peerRoot := map[int]int{0: 3, 1: 0}[h.Task]
		counts := []int{2, 2, 2}
		for round := 0; round < 3; round++ {
			mine := []float64{float64(10*h.Task + g.L4.Rank()), 7}
			got := g.Exchange(h.World, peerRoot, g.Salt(), mine, counts)
			want := float64(10*(1-h.Task) + g.L4.Rank())
			if len(got) != 2 || got[0] != want || got[1] != 7 {
				t.Errorf("round %d task %d L4 %d: got %v want lead %v", round, h.Task, g.L4.Rank(), got, want)
				return
			}
			// Scribble over the received slice; must not disturb peers or
			// later rounds.
			got[0], got[1] = -1, -1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInterfaceGroupRequiresMembers(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{{"solo", 3}}}
	err := mpi.Run(3, func(w *mpi.Comm) {
		h, _ := Build(w, cfg)
		if _, err := NewInterfaceGroup(h, "empty", false); err == nil {
			t.Error("expected error for memberless interface")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
