package dpd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nektarg/internal/monitor"
)

// guardScan is the nan-guard's value-by-value scan of every particle, the
// oracle of guardParticles' screened scan.
func guardScan(s *System) {
	for i := range s.Particles {
		p := &s.Particles[i]
		for _, v := range [...]float64{p.Pos.X, p.Pos.Y, p.Pos.Z, p.Vel.X, p.Vel.Y, p.Vel.Z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				s.Watch.GuardValue("dpd.step", "particle", v, i) //nolint:errcheck // the event is what the test reads
				return
			}
		}
	}
}

// guardEvents runs guard on s with a fresh watchdog bundle and returns the
// events it recorded, without their sequence numbers and times.
func guardEvents(s *System, guard func(*System)) []monitor.Event {
	h := monitor.NewHealth()
	s.Watch = h.Watch("region")
	guard(s)
	ev := h.Events()
	for i := range ev {
		ev[i].Seq, ev[i].Time = 0, time.Time{}
	}
	return ev
}

// TestGuardParticlesMatchesScan puts NaN, +Inf and -Inf in each of the six
// position and velocity fields of random particles, one to three of them at
// a time, and requires the event guardParticles records (value, index,
// message, latch) to be the value-by-value scan's. Finite state, with ±0,
// subnormals and the largest finite values, records no event.
func TestGuardParticlesMatchesScan(t *testing.T) {
	s := periodicFluid(t, 200, 5)
	rng := rand.New(rand.NewSource(47))
	clean := append([]Particle(nil), s.Particles...)
	for i := 0; i < len(clean); i += 7 {
		clean[i].Vel.X = []float64{0, math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.MaxFloat64}[i%5]
	}
	copy(s.Particles, clean)
	if ev := guardEvents(s, (*System).guardParticles); len(ev) != 0 {
		t.Fatalf("finite state: events %v", ev)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 6; field++ {
			for trial := 0; trial < 20; trial++ {
				copy(s.Particles, clean)
				for range 1 + trial%3 {
					p := &s.Particles[rng.Intn(len(s.Particles))]
					f := field
					if trial%3 != 0 {
						f = rng.Intn(6)
					}
					*[...]*float64{&p.Pos.X, &p.Pos.Y, &p.Pos.Z, &p.Vel.X, &p.Vel.Y, &p.Vel.Z}[f] = bad
				}
				got := guardEvents(s, (*System).guardParticles)
				want := guardEvents(s, guardScan)
				if len(want) != 1 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%v in field %d, trial %d: events %+v, scan %+v", bad, field, trial, got, want)
				}
			}
		}
	}
}
