package config

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"nektarg/internal/core"
)

// FuzzLoadConfig: Load returns a config or an error for any bytes, never a
// panic, and a config it accepts re-encodes to JSON it accepts again. The
// seed corpus holds every configs/*.json, a truncated copy, one with an
// unknown key and one with trailing data after the config object.
func FuzzLoadConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := Load(bytes.NewReader(b))
		if err != nil {
			if c != nil {
				t.Fatal("Load returned a config with its error")
			}
			return
		}
		_ = c.Transport.Validate()
		c.Insitu.InsituConfig()
		enc, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("an accepted config does not re-encode: %v", err)
		}
		if _, err := Load(bytes.NewReader(enc)); err != nil {
			t.Fatalf("a re-encoded config is refused: %v\n%s", err, enc)
		}
	})
}

// FuzzBuildConfig: Build turns any config Load accepts into a simulation or
// an error naming a config key, never a panic; and a small simulation it
// builds runs one exchange period, failing only with such an error. Seeds are
// every committed config plus four that Build once accepted although they
// could not run.
func FuzzBuildConfig(f *testing.F) {
	testdata := filepath.Join("..", "..", "cmd", "nektarg", "testdata")
	seeds, _ := filepath.Glob(filepath.Join("..", "..", "configs", "*.json"))
	for _, path := range append(seeds, filepath.Join(testdata, "defaults.json"),
		filepath.Join(testdata, "small.json"), filepath.Join(testdata, "with1d.json")) {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	small, err := os.ReadFile(filepath.Join(testdata, "small.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Patches[0].TimeOrder = 9 },
		func(c *Config) { c.Outlets = []Outlet{{Patch: "patch1", Face: "y0"}} },
		func(c *Config) { c.Couplings[0].Receiver = c.Couplings[0].Donor },
		func(c *Config) { c.Regions[0].Origin = Vec{100, 100, 100} },
	} {
		c, err := Load(bytes.NewReader(small))
		if err != nil {
			f.Fatal(err)
		}
		mutate(c)
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	keys := keyPattern(reflect.TypeOf(Config{}))
	f.Fuzz(func(t *testing.T, doc []byte) {
		c, err := Load(bytes.NewReader(doc))
		if err != nil || !c.fits(8, 64, 8, 5000) {
			return // Build's allocations stay at a few MB
		}
		b, err := c.Build()
		ex := c.Exchange
		if err == nil && c.fits(3, 8, 4, 500) && ex.NSSteps <= 10 && ex.DPDPerNS <= 20 && calm(b) {
			err = b.Meta.Advance(1) // well under a second
		}
		if err != nil && (!keys.MatchString(err.Error()) || strings.Contains(err.Error(), "panicked")) {
			t.Fatalf("error names no config key, or hides a panic: %v", err)
		}
	})
}

// keyPattern matches any JSON key of the config schema as a word, and the
// singular of each list key, which names one of its entries ("patch").
func keyPattern(t reflect.Type) *regexp.Regexp {
	var names []string
	var walk func(reflect.Type)
	walk = func(t reflect.Type) {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Array {
			t = t.Elem()
		}
		for i := 0; t.Kind() == reflect.Struct && i < t.NumField(); i++ {
			fld := t.Field(i)
			name, _, _ := strings.Cut(fld.Tag.Get("json"), ",")
			names = append(names, name, strings.TrimSuffix(name, "s"))
			walk(fld.Type)
		}
	}
	walk(t)
	return regexp.MustCompile(`\b(` + strings.Join(names, "|") + `)\b`)
}

// fits reports whether c has at most the given number of patches, each of at
// most the given elements and order, and regions of at most the given
// particles (the explicit count, else density times volume, plus platelets),
// each in a box of edges up to 20 and density up to 5 with at most 16
// interface divisions.
func (c *Config) fits(patches, elements, order int, particles float64) bool {
	if len(c.Patches) > patches {
		return false
	}
	for _, p := range c.Patches {
		e := p.Elements
		if max(e[0], e[1], e[2]) > elements || e[0]*e[1]*e[2] > elements || p.Order > order {
			return false
		}
	}
	for _, r := range c.Regions {
		n, rho := float64(r.Particles), r.Rho
		if rho <= 0 {
			rho = 3
		}
		if n <= 0 {
			n = rho * r.Box[0] * r.Box[1] * r.Box[2]
		}
		if r.Platelets != nil {
			n += float64(max(r.Platelets.Count, 0))
		}
		if n > particles || rho > 5 || max(r.Box[0], r.Box[1], r.Box[2]) > 20 || r.InterfaceDivisions > 16 {
			return false
		}
	}
	return true
}

// calm reports whether every region's inflow inserts a bounded number of
// particles per DPD step: a time step up to 0.01, and an imposed speed — the
// fastest initial continuum velocity times the Eq. 1 scale, boost and flux
// scale — up to 2 in DPD units. Past either, an unstable region fills with
// particles faster than an exchange period can be afforded.
func calm(b *Built) bool {
	var speed float64
	for _, p := range b.Patches {
		for _, f := range [][]float64{p.Solver.U, p.Solver.V, p.Solver.W} {
			for _, v := range f {
				speed = max(speed, math.Abs(v))
			}
		}
	}
	for _, a := range b.Regions {
		gain := core.VelocityScale(a.NSUnits, a.DPDUnits) * max(1, math.Abs(a.VelocityBoost)) * max(1, math.Abs(a.FluxScale))
		if a.Sys.Dt > 0.01 || speed*gain > 2 {
			return false
		}
	}
	return true
}
