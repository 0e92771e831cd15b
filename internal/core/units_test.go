package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVelocityScalePaperValues(t *testing.T) {
	// L_NS = 1 mm, L_DPD = 5 µm; equal viscosities: a physical length has a
	// 200x larger value in DPD units, so the Re-preserving velocity is 200x
	// smaller.
	ns := Units{L: 1e-3, Nu: 0.1}
	dp := Units{L: 5e-6, Nu: 0.1}
	got := VelocityScale(ns, dp)
	if math.Abs(got-5e-6/1e-3) > 1e-15 {
		t.Fatalf("scale = %v want %v", got, 5e-6/1e-3)
	}
}

func TestReynoldsPreservedAcrossScaling(t *testing.T) {
	f := func(vRaw, xRaw uint16) bool {
		v := 0.1 + float64(vRaw)/1000
		x := 0.1 + float64(xRaw)/1000
		ns := Units{L: 1e-3, Nu: 0.04}
		dp := Units{L: 5e-6, Nu: 0.15}
		reNS := v * x / ns.Nu
		vD := v * VelocityScale(ns, dp)
		xD := x * LengthScale(ns, dp)
		reDPD := vD * xD / dp.Nu
		return math.Abs(reNS-reDPD) < 1e-9*(1+reNS)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScalingRoundTrips(t *testing.T) {
	a := Units{L: 2e-3, Nu: 0.3}
	b := Units{L: 7e-6, Nu: 0.05}
	if v := VelocityScale(a, b) * VelocityScale(b, a); math.Abs(v-1) > 1e-12 {
		t.Fatalf("velocity round trip = %v", v)
	}
	if v := LengthScale(a, b) * LengthScale(b, a); math.Abs(v-1) > 1e-12 {
		t.Fatalf("length round trip = %v", v)
	}
}

// TestTimeScaleMatchesL2OverNu: the time scale t = x/v implied by the
// length and velocity scalings reproduces the paper's t ~ L²/ν rule.
func TestTimeScaleMatchesL2OverNu(t *testing.T) {
	a := Units{L: 1e-3, Nu: 0.1}
	b := Units{L: 5e-6, Nu: 0.2}
	want := math.Pow(a.L/b.L, 2) * (a.Nu / b.Nu)
	if got := LengthScale(a, b) / VelocityScale(a, b); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("time scale = %v want %v", got, want)
	}
}

func TestIdentityScaling(t *testing.T) {
	u := Units{L: 1e-3, Nu: 0.1}
	if VelocityScale(u, u) != 1 || LengthScale(u, u) != 1 {
		t.Fatal("self-scaling must be identity")
	}
}

func TestUnitsValidate(t *testing.T) {
	if (Units{L: 1, Nu: 1}).Validate() != nil {
		t.Fatal("valid units rejected")
	}
	if (Units{L: 0, Nu: 1}).Validate() == nil {
		t.Fatal("zero L accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	VelocityScale(Units{}, Units{L: 1, Nu: 1})
}

func TestWomersleyPreservedAcrossScaling(t *testing.T) {
	// Matching velocity/length/time scales preserves Ws = R sqrt(omega/nu)
	// just like Re.
	ns := Units{L: 1e-3, Nu: 0.04}
	dp := Units{L: 5e-6, Nu: 0.15}
	omega, radius := 2.1, 0.8
	wsNS := radius * math.Sqrt(omega/ns.Nu)
	// omega scales inversely with time, radius with length.
	timeScale := LengthScale(ns, dp) / VelocityScale(ns, dp)
	wsDPD := radius * LengthScale(ns, dp) * math.Sqrt(omega/timeScale/dp.Nu)
	if math.Abs(wsNS-wsDPD)/wsNS > 1e-12 {
		t.Fatalf("Ws not preserved: %v vs %v", wsNS, wsDPD)
	}
}
