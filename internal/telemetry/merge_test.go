package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomSnapshots draws n tracks, each recording a random subset of a small
// stage and gauge vocabulary with continuous random totals (ties have
// probability zero; the tie rule has its own test below).
func randomSnapshots(rng *rand.Rand, n int) []*Snapshot {
	snaps := make([]*Snapshot, n)
	for i := range snaps {
		s := &Snapshot{
			Track:  fmt.Sprintf("t%02d", i),
			Stages: map[string]StageStats{},
			Gauges: map[string]GaugeStats{},
		}
		for k := 0; k < 6; k++ {
			if rng.Intn(3) == 0 {
				continue
			}
			lo := rng.Float64()
			s.Stages[fmt.Sprintf("stage%d", k)] = StageStats{
				Count: 1 + rng.Int63n(50), Total: 1e-3 + 10*rng.Float64(),
				Min: lo, Max: lo + rng.Float64(), Hops: rng.Int63n(9),
			}
		}
		for k := 0; k < 3; k++ {
			if rng.Intn(2) == 0 {
				continue
			}
			lo := rng.NormFloat64()
			s.Gauges[fmt.Sprintf("gauge%d", k)] = GaugeStats{
				Count: 1 + rng.Int63n(20), Sum: 100 * rng.Float64(), Min: lo, Max: lo + rng.Float64(),
			}
		}
		s.Traffic[rng.Intn(int(NumLevels))][rng.Intn(int(NumOps))] = Traffic{Msgs: rng.Int63n(100), Bytes: rng.Int63n(1 << 20)}
		snaps[i] = s
	}
	return snaps
}

// mergeRandomly merges the parts pairwise in a random grouping (a random
// binary tree over a random order) down to one aggregate.
func mergeRandomly(rng *rand.Rand, parts []*ClusterStats) *ClusterStats {
	for len(parts) > 1 {
		i, j := rng.Intn(len(parts)), rng.Intn(len(parts)-1)
		if j >= i {
			j++
		}
		parts[i].Merge(parts[j])
		parts[j] = parts[len(parts)-1]
		parts = parts[:len(parts)-1]
	}
	return parts[0]
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }

// TestMergeEqualsAggregate is the merge rule's contract: for random snapshot
// sets, aggregating each block of a random partition and merging the blocks
// in any order and grouping equals Aggregate of the whole — exactly for
// counts, minima, maxima, the straggler and traffic, to 1e-12 relative for
// the floating-point sums and what is derived from them.
func TestMergeEqualsAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		snaps := randomSnapshots(rng, 1+rng.Intn(12))
		want := Aggregate(snaps)

		blocks := make([][]*Snapshot, 1+rng.Intn(len(snaps)))
		for _, s := range snaps {
			b := rng.Intn(len(blocks))
			blocks[b] = append(blocks[b], s)
		}
		parts := make([]*ClusterStats, len(blocks))
		for i, b := range blocks {
			parts[i] = Aggregate(b) // an empty block is the merge's identity
		}
		got := mergeRandomly(rng, parts)

		if got.Tracks != want.Tracks || got.Traffic != want.Traffic {
			t.Fatalf("trial %d: tracks/traffic differ", trial)
		}
		if len(got.Stages) != len(want.Stages) || len(got.Gauges) != len(want.Gauges) {
			t.Fatalf("trial %d: %d stages %d gauges, want %d/%d", trial, len(got.Stages), len(got.Gauges), len(want.Stages), len(want.Gauges))
		}
		for i, w := range want.Stages {
			g := got.Stages[i]
			if !near(g.Total, w.Total) || !near(g.TotalMean, w.TotalMean) || !near(g.Imbalance, w.Imbalance) {
				t.Fatalf("trial %d stage %s: sums %+v, want %+v", trial, w.Name, g, w)
			}
			g.Total, g.TotalMean, g.Imbalance = w.Total, w.TotalMean, w.Imbalance
			if g != w {
				t.Fatalf("trial %d stage %s: %+v, want %+v", trial, w.Name, g, w)
			}
		}
		for i, w := range want.Gauges {
			g := got.Gauges[i]
			if !near(g.Sum, w.Sum) || !near(g.Mean, w.Mean) {
				t.Fatalf("trial %d gauge %s: sums %+v, want %+v", trial, w.Name, g, w)
			}
			g.Sum, g.Mean = w.Sum, w.Mean
			if g != w {
				t.Fatalf("trial %d gauge %s: %+v, want %+v", trial, w.Name, g, w)
			}
		}
	}
}

// TestMergeStragglerTieKeepsTrackOrder pins the tie rule: when two tracks
// share the largest total, the earlier one is the straggler under every
// grouping that keeps the operands in track order — which is what the serial
// fold and the rank-ordered binomial tree both do.
func TestMergeStragglerTieKeepsTrackOrder(t *testing.T) {
	var snaps []*Snapshot
	for _, track := range []string{"z", "a", "m", "b"} {
		snaps = append(snaps, &Snapshot{Track: track, Stages: map[string]StageStats{"s": {Count: 1, Total: 2, Min: 2, Max: 2}}})
	}
	want := Aggregate(snaps)
	if want.Stages[0].Straggler != "z" {
		t.Fatalf("serial fold straggler = %q, want the first track", want.Stages[0].Straggler)
	}
	left, right := Aggregate(snaps[:2]), Aggregate(snaps[2:])
	left.Merge(right)
	if !reflect.DeepEqual(left, want) {
		t.Fatalf("(z a)(m b) = %+v, want %+v", left, want)
	}
	tail := Aggregate(snaps[1:])
	head := Aggregate(snaps[:1])
	head.Merge(tail)
	if !reflect.DeepEqual(head, want) {
		t.Fatalf("z(a m b) = %+v, want %+v", head, want)
	}
}
