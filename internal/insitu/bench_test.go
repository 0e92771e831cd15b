package insitu

import (
	"fmt"
	"testing"

	"nektarg/internal/geometry"
)

// BenchmarkInsituPublishExchange measures the full per-stride publish cost a
// solver rank pays — snapshot deep-copies of every patch, region and
// interface plus the queue offer — against a stalled (never drained) queue,
// i.e. the worst case the non-blocking contract must keep cheap.
func BenchmarkInsituPublishExchange(b *testing.B) {
	m := buildCoupledMeta(b)
	pub, _ := NewPipeline(Config{Stride: 1, MaxParticles: 256})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub.PublishExchange(m, i+1, float64(i))
	}
}

// BenchmarkInsituQueuePublish isolates the transport: one small particle
// piece into a bounded queue with no consumer — pure
// lock/evict/count cost, the floor under every publish.
func BenchmarkInsituQueuePublish(b *testing.B) {
	q := NewQueue(DefaultQueueCap)
	p := &Piece{
		Kind: KindParticles, Source: "bench", Step: 1,
		Particles: &ParticleCloud{Total: 8, Pos: make([]geometry.Vec3, 8), Vel: make([]geometry.Vec3, 8)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step = i
		q.Publish(p)
	}
}

// BenchmarkInsituAssemble measures the observer-side frame assembly: eight
// sources per step, one emitted frame per eight Adds.
func BenchmarkInsituAssemble(b *testing.B) {
	const nsrc = 8
	sources := make([]string, nsrc)
	for i := range sources {
		sources[i] = fmt.Sprintf("src%d", i)
	}
	pieces := make([]*Piece, nsrc)
	for i := range pieces {
		pieces[i] = testPieceB(sources[i])
	}
	a := NewAssembler(sources, DefaultHorizon)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := i + 1
		for _, p := range pieces {
			p.Step = step
			a.Add(p)
		}
	}
	if st := a.Stats(); int(st.Frames) != b.N {
		b.Fatalf("assembled %d frames over %d steps", st.Frames, b.N)
	}
}

func testPieceB(source string) *Piece {
	return &Piece{
		Kind: KindParticles, Source: source,
		Particles: &ParticleCloud{Total: 4, Pos: make([]geometry.Vec3, 4), Vel: make([]geometry.Vec3, 4)},
	}
}
