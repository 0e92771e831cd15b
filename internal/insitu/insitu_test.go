package insitu

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"nektarg/internal/geometry"
)

func testPiece(source string, step int) *Piece {
	return &Piece{
		Kind: KindParticles, Source: source, Step: step, Time: float64(step),
		Particles: &ParticleCloud{
			Total: 2,
			Pos:   []geometry.Vec3{{X: 1}, {Y: 2}},
			Vel:   []geometry.Vec3{{}, {}},
		},
	}
}

// TestQueueConservation pins the drop-accounting law on the in-process
// transport under concurrency: with several publishers racing a consumer,
// published == delivered + dropped must hold exactly once the queue drains,
// and the consumer must have seen exactly `delivered` pieces. The subtest is
// named for the queue's drop policy, which discards the oldest piece when
// full. Run under -race in the verify gate.
func TestQueueConservation(t *testing.T) {
	t.Run("drop-oldest", func(t *testing.T) {
		q := NewQueue(7) // deliberately tiny: force drops
		const publishers, perPublisher = 4, 500

		var consumed int64
		var consumer sync.WaitGroup
		consumer.Add(1)
		go func() {
			defer consumer.Done()
			for {
				if _, ok := q.Take(); !ok {
					return
				}
				consumed++
			}
		}()

		var pubs sync.WaitGroup
		for p := 0; p < publishers; p++ {
			pubs.Add(1)
			go func(p int) {
				defer pubs.Done()
				src := fmt.Sprintf("src%d", p)
				for s := 0; s < perPublisher; s++ {
					q.Publish(testPiece(src, s))
				}
			}(p)
		}
		pubs.Wait()
		q.Close()
		consumer.Wait()

		st := q.Stats()
		if st.Published != publishers*perPublisher {
			t.Fatalf("published = %d, want %d", st.Published, publishers*perPublisher)
		}
		if st.Published != st.Delivered+st.Dropped {
			t.Fatalf("conservation violated: published %d != delivered %d + dropped %d",
				st.Published, st.Delivered, st.Dropped)
		}
		if consumed != st.Delivered {
			t.Fatalf("consumer saw %d pieces, queue counted %d delivered", consumed, st.Delivered)
		}
		if st.Queued != 0 {
			t.Fatalf("drained queue reports %d queued", st.Queued)
		}
		if st.Dropped == 0 {
			t.Fatal("tiny queue under 4x500 publishes dropped nothing; test lost its teeth")
		}
	})
}

// TestQueueDropOldestKeepsNewest: with a stalled consumer, the queue must
// leave exactly the newest cap pieces in the queue — the latest-wins contract
// that bounds observer staleness by the queue depth.
func TestQueueDropOldestKeepsNewest(t *testing.T) {
	const cap = 4
	q := NewQueue(cap)
	for s := 0; s < 10; s++ {
		q.Publish(testPiece("a", s))
	}
	q.Close()
	var got []int
	for {
		p, ok := q.Take()
		if !ok {
			break
		}
		got = append(got, p.Step)
	}
	want := []int{6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
	if st := q.Stats(); st.Dropped != 6 || st.Delivered != 4 || st.Published != 10 {
		t.Fatalf("stats = %+v, want 10 published / 4 delivered / 6 dropped", st)
	}
}

// TestQueuePublishAfterClose: a closed queue counts publishes as drops — the
// solver keeps running after the observer is gone, and the accounting stays
// conserved.
func TestQueuePublishAfterClose(t *testing.T) {
	q := NewQueue(4)
	q.Close()
	if q.Publish(testPiece("a", 1)) {
		t.Fatal("publish to a closed queue reported accepted")
	}
	st := q.Stats()
	if st.Published != 1 || st.Dropped != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want 1 published / 1 dropped", st)
	}
}

// TestAssemblerCausalConsistency: pieces from interleaved steps must assemble
// into frames that never mix steps.
func TestAssemblerCausalConsistency(t *testing.T) {
	sources := []string{"patch:a", "patch:b", "dpd:r"}
	a := NewAssembler(sources, 10)

	// Interleave steps 1 and 2; neither completes until its last source.
	if f := a.Add(testPiece("patch:a", 1)); f != nil {
		t.Fatal("frame emitted before all sources reported")
	}
	if f := a.Add(testPiece("patch:a", 2)); f != nil {
		t.Fatal("frame emitted for incomplete step 2")
	}
	if f := a.Add(testPiece("patch:b", 1)); f != nil {
		t.Fatal("frame emitted with 2/3 sources")
	}
	f := a.Add(testPiece("dpd:r", 1))
	if f == nil {
		t.Fatal("step 1 complete but no frame emitted")
	}
	if f.Step != 1 || len(f.Pieces) != 3 {
		t.Fatalf("frame step %d with %d pieces, want step 1 with 3", f.Step, len(f.Pieces))
	}
	for _, p := range f.Pieces {
		if p.Step != 1 {
			t.Fatalf("frame mixes steps: piece %q carries step %d", p.Source, p.Step)
		}
	}
	// Unexpected sources are ignored, duplicates keep the first arrival.
	if f := a.Add(testPiece("stranger", 2)); f != nil {
		t.Fatal("unexpected source completed a frame")
	}
	if f := a.Add(testPiece("patch:a", 2)); f != nil {
		t.Fatal("duplicate source completed a frame")
	}
	a.Add(testPiece("patch:b", 2))
	f = a.Add(testPiece("dpd:r", 2))
	if f == nil || f.Step != 2 {
		t.Fatalf("step 2 did not assemble: %+v", f)
	}
	st := a.Stats()
	if st.Frames != 2 || st.Staleness != 0 {
		t.Fatalf("stats = %+v, want 2 frames staleness 0", st)
	}
}

// TestAssemblerAbandonsStale: a partial step that trails the newest piece by
// more than the horizon is dropped and counted, never emitted — the accounting
// that keeps evicting pipelines from pending forever.
func TestAssemblerAbandonsStale(t *testing.T) {
	a := NewAssembler([]string{"x", "y"}, 2)
	a.Add(testPiece("x", 1)) // partial step 1
	a.Add(testPiece("x", 5)) // step 5 arrives: 5-1 > 2, step 1 abandoned
	if f := a.Add(testPiece("y", 1)); f != nil {
		t.Fatal("abandoned step was emitted")
	}
	st := a.Stats()
	if st.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", st.Abandoned)
	}
	if f := a.Add(testPiece("y", 5)); f == nil || f.Step != 5 {
		t.Fatalf("current step did not assemble: %+v", f)
	}
}

// TestAssemblerEmitCleansOlderPartials: emitting step N abandons any pending
// step < N (they can never beat the emitted frame).
func TestAssemblerEmitCleansOlderPartials(t *testing.T) {
	a := NewAssembler([]string{"x", "y"}, 100)
	a.Add(testPiece("x", 3)) // partial, will be overtaken
	a.Add(testPiece("x", 4))
	if f := a.Add(testPiece("y", 4)); f == nil {
		t.Fatal("step 4 should have assembled")
	}
	st := a.Stats()
	if st.Abandoned != 1 || st.Pending != 0 {
		t.Fatalf("stats = %+v, want 1 abandoned 0 pending", st)
	}
	// A straggler for the overtaken step must not regress the series.
	if f := a.Add(testPiece("y", 3)); f != nil {
		t.Fatal("stale straggler emitted a frame behind the series head")
	}
}

// TestPieceTelemetryBytes sanity-checks the Sizer accounting the byte
// counters rely on.
func TestPieceTelemetryBytes(t *testing.T) {
	var nilPiece *Piece
	if nilPiece.TelemetryBytes() != 0 {
		t.Fatal("nil piece has nonzero size")
	}
	p := testPiece("a", 1)
	want := int64(64 + 24*4) // header + 2 pos + 2 vel
	if got := p.TelemetryBytes(); got != want {
		t.Fatalf("TelemetryBytes = %d, want %d", got, want)
	}
}

// TestObserverSnapshotVTKBeforeFrame: the HTTP surface must distinguish "no
// frame yet" (an error the server maps to 503) from an empty success.
func TestObserverSnapshotVTKBeforeFrame(t *testing.T) {
	o := NewObserver(ObserverConfig{Sources: []string{"x"}})
	var sb strings.Builder
	if err := o.SnapshotVTK(&sb); err == nil {
		t.Fatal("SnapshotVTK succeeded with no assembled frame")
	}
	meta, err := o.SnapshotMeta()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(meta), `"has_frame": false`) {
		t.Fatalf("meta before first frame: %s", meta)
	}
}
