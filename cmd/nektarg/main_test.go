package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nektarg/internal/config"
)

// parse runs parseArgs on a private flag set.
func parse(t *testing.T, args ...string) (*config.Config, options) {
	t.Helper()
	fs := flag.NewFlagSet("nektarg", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, o, err := parseArgs(fs, args)
	if err != nil {
		t.Fatalf("parseArgs %v: %v", args, err)
	}
	return cfg, o
}

// fingerprint drives run and reduces what it printed to the determinism
// fingerprint: one "e<N> key=value" fact per attribute of every "exchange
// complete" record, one "overlap a-b=value" fact per overlap-continuity line.
func fingerprint(t *testing.T, cfg *config.Config, o options) []string {
	t.Helper()
	var logs, out bytes.Buffer
	o.logger = slog.New(slog.NewTextHandler(&logs, nil))
	o.out = &out
	if err := run(cfg, o); err != nil {
		t.Fatalf("run: %v", err)
	}
	var exchanges, overlap []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if _, attrs, ok := strings.Cut(line, `msg="exchange complete" `); ok {
			exchanges = append(exchanges, attrs)
		}
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if pair, rms, ok := strings.Cut(line, ": "); ok && strings.HasPrefix(pair, "  ") {
			overlap = append(overlap, "overlap "+strings.TrimSpace(pair)+"="+rms)
		}
	}
	return facts(t, append(exchanges, overlap...))
}

// facts splits fingerprint lines (a run's, or a testdata file's) into facts.
func facts(t *testing.T, lines []string) []string {
	t.Helper()
	var fs []string
	for _, line := range lines {
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "overlap "):
			fs = append(fs, line)
		case strings.HasPrefix(line, "exchange="):
			tokens := strings.Fields(line)
			for _, tok := range tokens[1:] {
				fs = append(fs, "e"+strings.TrimPrefix(tokens[0], "exchange=")+" "+tok)
			}
		default:
			t.Fatalf("not a fingerprint line: %q", line)
		}
	}
	return fs
}

// recorded loads a fingerprint recorded from the parent commit's binary.
func recorded(t *testing.T, name string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name+".fingerprint"))
	if err != nil {
		t.Fatal(err)
	}
	return facts(t, strings.Split(string(raw), "\n"))
}

// assertContains fails unless every wanted fact appears, digit for digit, in
// got. (The recorded files hold what the parent printed; run may print more —
// the parent's two paths each left some attributes out.)
func assertContains(t *testing.T, got, want []string) {
	t.Helper()
	have := map[string]bool{}
	for _, f := range got {
		have[f] = true
	}
	for _, f := range want {
		if !have[f] {
			t.Errorf("fingerprint lacks %q", f)
		}
	}
	if t.Failed() {
		t.Logf("got:\n%s", strings.Join(got, "\n"))
	}
}

// TestRunFingerprints: the four scenarios recorded from the parent binary
// (built-in defaults, with the 1D tree, a small three-patch run without
// platelets, configs/coupled.json) come out of run digit for digit. Four
// re-recordings since, old values kept in each file's header. Two were
// round-off-level numerics (the bound for such a change is 1e-9 relative): with1d's
// three 1D inlet pressures, when nektar1d's wave speed became two square
// roots and its junction Newton stopped on a reachable rule (largest relative
// change 5.6e-14, every 3D and DPD fact untouched); and the 3D facts of all
// four, when the Grid solves began seeding CG with the fast-diagonalization
// solve instead of last step's field — interface RMS by at most 7.5e-15
// relative, while max_div and the overlap RMS, exact zeros of these steady
// Poiseuille runs that read as round-off, went from ~8e-16 to ~1e-14 and
// from ~1e-17 to ~1e-16..4e-16 in absolute terms. The third re-pinned the DPD
// facts of all four (interface RMS, clot and passive counts) when the pair
// sweep took one hash round per pair and summed in gather order: another
// trajectory of the same fluid, earned by dpd's ensemble and kernel tests,
// not by a bound on these digits; every continuum and 1D fact stayed put.
// The fourth, round-off again, moved the 3D facts of all four when the SEM
// stiffness and derivatives became Kronecker products of the 1D factors:
// interface RMS by at most 6.7e-15 relative, max_div and overlap RMS within
// their round-off range; every DPD count and 1D fact stayed put.
func TestRunFingerprints(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"defaults", nil},
		{"with1d", []string{"-with1d"}},
		{"small", []string{"-patches", "3", "-order", "3", "-particles", "400", "-platelets", "0"}},
		{"config", []string{"-config", filepath.Join("..", "..", "configs", "coupled.json")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, o := parse(t, append([]string{"-exchanges", "3"}, tc.args...)...)
			assertContains(t, fingerprint(t, cfg, o), recorded(t, tc.name))
		})
	}
}

// TestRunConfigRoundTrip: nothing of the built-in scenario lives outside its
// Config — written out as JSON and loaded back through config.Load it runs to
// the same fingerprint.
func TestRunConfigRoundTrip(t *testing.T) {
	cfg, o := parse(t, "-exchanges", "3", "-with1d", "-particles", "400", "-platelets", "10")
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := config.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("generated config does not load: %v\n%s", err, raw)
	}
	direct, reloaded := fingerprint(t, cfg, o), fingerprint(t, loaded, o)
	if !reflect.DeepEqual(direct, reloaded) {
		t.Fatalf("fingerprint changed across the JSON round trip:\n%s\nvs\n%s",
			strings.Join(direct, "\n"), strings.Join(reloaded, "\n"))
	}
}

// TestRunKillAtSameFingerprint: a run whose clot is growing (200 platelets,
// dozens activating per period), killed after exchange 2 under
// -checkpoint-dir, recovers to the unfaulted run's fingerprint — the platelet
// activation clocks ride in the checkpoint. Each exchange-2 fact appears
// twice in the faulted run (before the kill and on the replay); both must be
// the unfaulted value.
func TestRunKillAtSameFingerprint(t *testing.T) {
	args := []string{"-exchanges", "3", "-platelets", "200"}
	cfg, o := parse(t, args...)
	want := fingerprint(t, cfg, o)
	cfg, o = parse(t, append(args, "-checkpoint-dir", t.TempDir(), "-kill-at", "2")...)
	got := fingerprint(t, cfg, o)
	assertContains(t, got, want)
	assertContains(t, want, got)
}

// TestFlagsOverrideConfigBlocks: a flag that shadows a config block changes
// only its own field, only when set, and only creates a block when it is the
// enabling flag.
func TestFlagsOverrideConfigBlocks(t *testing.T) {
	coupled := filepath.Join("..", "..", "configs", "coupled.json")

	cfg, _ := parse(t, "-config", coupled)
	if cfg.Insitu == nil || cfg.Insitu.Stride != 2 || cfg.Insitu.MaxParticles != 1024 || cfg.Audit != nil || cfg.Transport != nil {
		t.Fatalf("no shadow flag set, yet the file's blocks changed: %+v %+v %+v", cfg.Insitu, cfg.Audit, cfg.Transport)
	}

	cfg, _ = parse(t, "-config", coupled, "-insitu-stride", "5", "-insitu-dir", "frames", "-audit",
		"-transport", "tcp", "-rank", "1", "-peers", "a:1,b:2")
	if in := cfg.Insitu; in.Stride != 5 || in.Dir != "frames" || in.MaxParticles != 1024 || in.Keep != 4 {
		t.Errorf("insitu flags must override field by field: %+v", in)
	}
	if cfg.Audit == nil {
		t.Error("-audit did not create the audit block")
	}
	if tr := tcp(cfg); tr == nil || tr.Rank != 1 || !reflect.DeepEqual(tr.Peers, []string{"a:1", "b:2"}) {
		t.Errorf("transport flags: %+v", cfg.Transport)
	}

	cfg, _ = parse(t, "-insitu-stride", "5")
	if cfg.Insitu != nil {
		t.Errorf("a refining flag alone must not enable in-situ: %+v", cfg.Insitu)
	}
	cfg, _ = parse(t, "-insitu", "-insitu-keep", "9")
	if in := cfg.Insitu; in == nil || in.Stride != 1 || in.Policy != "drop-oldest" || in.Keep != 9 {
		t.Errorf("-insitu must create the block from the insitu flags: %+v", in)
	}
}
