package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nektarg/internal/config"
	"nektarg/internal/fleet"
	"nektarg/internal/monitor"
)

// defaults is the two-patch, 40-platelet scenario the tests below vary.
var defaults = filepath.Join("testdata", "defaults.json")

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

// TestRunFingerprints: every committed config — configs/*.json and
// testdata/*.json — runs three exchanges to its recorded
// testdata/<name>.fingerprint digit for digit; a config without one fails.
// The first four (testdata's defaults, with1d and small, which the retired
// scenario flags once generated, and configs/coupled.json) were recorded
// from an earlier binary that had two run paths. Five
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
// their round-off range; every DPD count and 1D fact stayed put. The fifth
// moved the DPD interface RMS by at most 7.5e-12 relative when the pair
// forces became exact sums; every continuum and 1D fact and every DPD count
// stayed put. Since then the facts hold at every GOMAXPROCS.
func TestRunFingerprints(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "configs", "*.json"))
	local, _ := filepath.Glob(filepath.Join("testdata", "*.json"))
	paths = append(paths, local...)
	if len(paths) == 0 {
		t.Fatal("no configs found")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			cfg, o := parse(t, "-exchanges", "3", "-config", path)
			assertContains(t, fingerprint(t, cfg, o), recorded(t, name))
		})
	}
}

// TestRunKillAtSameFingerprint: a run whose clot is growing (200 platelets,
// dozens activating per period), killed after exchange 2 under
// -checkpoint-dir, recovers to the unfaulted run's fingerprint — the platelet
// activation clocks ride in the checkpoint. Each exchange-2 fact appears
// twice in the faulted run (before the kill and on the replay); both must be
// the unfaulted value.
func TestRunKillAtSameFingerprint(t *testing.T) {
	args := []string{"-exchanges", "3", "-config", defaults}
	cfg, o := parse(t, args...)
	cfg.Regions[0].Platelets.Count = 200
	want := fingerprint(t, cfg, o)
	cfg, o = parse(t, append(args, "-checkpoint-dir", t.TempDir(), "-kill-at", "2")...)
	cfg.Regions[0].Platelets.Count = 200
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
	if in := cfg.Insitu; in.Stride != 5 || in.Dir != "frames" || in.MaxParticles != 1024 {
		t.Errorf("insitu flags must override field by field: %+v", in)
	}
	if cfg.Audit == nil {
		t.Error("-audit did not create the audit block")
	}
	if tr := tcp(cfg); tr == nil || tr.Rank != 1 || !reflect.DeepEqual(tr.Peers, []string{"a:1", "b:2"}) {
		t.Errorf("transport flags: %+v", cfg.Transport)
	}

	cfg, _ = parse(t, "-config", defaults, "-insitu-stride", "5")
	if cfg.Insitu != nil {
		t.Errorf("a refining flag alone must not enable in-situ: %+v", cfg.Insitu)
	}
	cfg, _ = parse(t, "-config", defaults, "-insitu", "-insitu-dir", "frames")
	if in := cfg.Insitu; in == nil || in.Stride != 1 || in.Dir != "frames" {
		t.Errorf("-insitu must create the block from the insitu flags: %+v", in)
	}
}

// TestConfigRequired: a run needs -config, and the error names a committed
// one; -version alone still parses.
func TestConfigRequired(t *testing.T) {
	fs := flag.NewFlagSet("nektarg", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, _, err := parseArgs(fs, []string{"-exchanges", "3"}); err == nil || !strings.Contains(err.Error(), "configs/coupled.json") {
		t.Errorf("no -config: err = %v, want one naming configs/coupled.json", err)
	}
	if _, o := parse(t, "-version"); !o.version {
		t.Error("-version without -config did not parse")
	}
}

// TestOneFlightRecorderPerRun: with a monitor and a checkpoint store, the
// watchdog-trip dumps and the recovery loop's dumps come from one recorder,
// so every flight-*.json is journaled and stamped with the incarnation the
// journal assigned. The one-rank TCP world runs through RunDistributed,
// whose journal numbers the incarnations; the in-process world has one.
func TestOneFlightRecorderPerRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer := ln.Addr().String()
	ln.Close()
	for name, extra := range map[string][]string{
		"inproc": nil,
		"tcp":    {"-transport", "tcp", "-rank", "0", "-peers", peer},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg, o := parse(t, append([]string{"-exchanges", "2", "-config", defaults, "-audit",
				"-monitor-addr", "127.0.0.1:0", "-checkpoint-dir", dir}, extra...)...)
			// A flux scale of 3 latches the audit ledger's gi.flux budget
			// critical on the first exchange, every time it is replayed.
			cfg.Regions[0].FluxScale = 3
			o.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
			o.out = io.Discard
			if err := run(cfg, o); err == nil {
				t.Fatal("a run with a latched critical budget finished")
			}
			events, err := fleet.ReadJournal(filepath.Join(dir, "journal.nkj"))
			if err != nil {
				t.Fatal(err)
			}
			journaled := map[string]fleet.Event{}
			for _, e := range events {
				if e.Type == fleet.EventFlightDump {
					journaled[e.Fields["path"].(string)] = e
				}
			}
			paths, _ := filepath.Glob(filepath.Join(dir, "flight", "flight-*.json"))
			if len(paths) == 0 {
				t.Fatal("no flight dump written")
			}
			trips := 0
			for _, p := range paths {
				raw, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				var d monitor.FlightDump
				if err := json.Unmarshal(raw, &d); err != nil {
					t.Fatal(err)
				}
				if d.Trip != nil {
					trips++
				}
				e, ok := journaled[p]
				if !ok {
					t.Errorf("%s (%s) has no flight-dump journal record", filepath.Base(p), d.Reason)
					continue
				}
				if d.Incarnation != e.Incarnation {
					t.Errorf("%s (%s): incarnation %d, journal says %d", filepath.Base(p), d.Reason, d.Incarnation, e.Incarnation)
				}
			}
			if trips == 0 {
				t.Error("no watchdog-trip dump among the flight dumps")
			}
		})
	}
}
