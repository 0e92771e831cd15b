// Benchjson assembles and compares BENCH_telemetry.json bundles.
//
// Bundle mode (default, used by scripts/bench.sh): reads the comm,
// telemetry, monitor, insitu, cluster, audit, kernels and history benchmark
// transcripts from the COMM, TELE, MONITOR, INSITU, CLUSTER, AUDIT, KERNELS
// and HISTORY environment variables and emits one indented JSON document on
// stdout.
// Bench transcripts are parsed into structured {name, value, unit} samples
// (standard `go test -bench` line format) with the raw lines preserved
// alongside.
//
// Compare mode (make bench-compare):
//
//	go run ./scripts/benchjson -compare old.json new.json
//
// matches every ns/op sample present in both bundles by section/name and
// flags regressions where new exceeds old by more than -threshold (default
// 25%). Exits 1 when any regression is found, so CI can gate on it. Bench
// noise on shared runners is real: treat a failure as "rerun and look", not
// proof — but a clean pass is evidence no large regression shipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Sample is one measurement from a `go test -bench` output line. A line
//
//	BenchmarkBcast/p=8-16   30   51042 ns/op   1234 B/op   7 allocs/op
//
// yields three samples: ns/op, B/op and allocs/op, all under the same name.
type Sample struct {
	Name  string  `json:"name"`
	Iters int64   `json:"iters"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func parseBench(out string) (lines []string, samples []Sample) {
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		lines = append(lines, line)
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		// Value/unit pairs follow: 51042 ns/op 1234 B/op 7 allocs/op ...
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			samples = append(samples, Sample{Name: f[0], Iters: iters, Value: v, Unit: f[i+1]})
		}
	}
	return lines, samples
}

// sections is the stable order of bench transcript sections in a bundle.
var sections = []string{"comm", "telemetry", "monitor", "insitu", "cluster", "audit", "kernels", "history"}

func bundle() {
	env := map[string]string{
		"comm":      "COMM",
		"telemetry": "TELE",
		"monitor":   "MONITOR",
		"insitu":    "INSITU",
		"cluster":   "CLUSTER",
		"audit":     "AUDIT",
		"kernels":   "KERNELS",
		"history":   "HISTORY",
	}
	doc := map[string]any{}
	for _, sec := range sections {
		lines, samples := parseBench(os.Getenv(env[sec]))
		doc[sec] = map[string]any{"lines": lines, "samples": samples}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
}

// loadNsPerOp reads a bundle and returns section/name -> ns/op. Duplicate
// names within a section keep the minimum (the usual min-of-N noise shield).
func loadNsPerOp(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, sec := range sections {
		secRaw, ok := doc[sec]
		if !ok {
			continue // older bundles predate some sections
		}
		var body struct {
			Samples []Sample `json:"samples"`
		}
		if err := json.Unmarshal(secRaw, &body); err != nil {
			return nil, fmt.Errorf("%s: section %q: %w", path, sec, err)
		}
		for _, s := range body.Samples {
			if s.Unit != "ns/op" {
				continue
			}
			key := sec + "/" + s.Name
			if v, ok := out[key]; !ok || s.Value < v {
				out[key] = s.Value
			}
		}
	}
	return out, nil
}

// compareResult summarizes one bundle-vs-bundle comparison.
type compareResult struct {
	compared    int
	missing     int // only in the old bundle
	newOnly     int // only in the new bundle
	unbaselined int // old value zero/negative: delta undefined
	regressions int
}

// compareNs writes the comparison table to w and tallies the verdicts; the
// caller decides the exit policy.
func compareNs(w io.Writer, oldNs, newNs map[string]float64, threshold float64) compareResult {
	keys := make([]string, 0, len(oldNs))
	for k := range oldNs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var res compareResult
	fmt.Fprintf(w, "%-64s %12s %12s %8s\n", "benchmark (section/name, ns/op)", "old", "new", "delta")
	for _, k := range keys {
		nv, ok := newNs[k]
		if !ok {
			res.missing++
			continue
		}
		res.compared++
		ov := oldNs[k]
		if ov <= 0 {
			// A zero-ns/op baseline (stubbed run, truncated transcript) made
			// the delta Inf/NaN and the row meaningless; flag it instead of
			// letting it slide through the gate.
			res.unbaselined++
			fmt.Fprintf(w, "%-64s %12.1f %12.1f %8s  << NO BASELINE\n", k, ov, nv, "n/a")
			continue
		}
		delta := nv/ov - 1
		mark := ""
		if delta > threshold {
			mark = "  << REGRESSION"
			res.regressions++
		}
		fmt.Fprintf(w, "%-64s %12.1f %12.1f %+7.1f%%%s\n", k, ov, nv, 100*delta, mark)
	}

	// Benchmarks only in the new bundle are expected when a PR adds a
	// section, but they must be visible: a silent no-op here once hid every
	// new benchmark from the report.
	var newOnly []string
	for k := range newNs {
		if _, ok := oldNs[k]; !ok {
			newOnly = append(newOnly, k)
		}
	}
	sort.Strings(newOnly)
	for _, k := range newOnly {
		fmt.Fprintf(w, "%-64s %12s %12.1f %8s  (new)\n", k, "-", newNs[k], "")
	}
	res.newOnly = len(newOnly)
	return res
}

func compare(oldPath, newPath string, threshold float64) {
	oldNs, err := loadNsPerOp(oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newNs, err := loadNsPerOp(newPath)
	if err != nil {
		log.Fatal(err)
	}

	res := compareNs(os.Stdout, oldNs, newNs, threshold)
	fmt.Printf("\ncompared %d benchmarks (%d only in %s, %d new), threshold +%.0f%%\n",
		res.compared, res.missing, oldPath, res.newOnly, 100*threshold)
	if res.compared == 0 {
		log.Fatal("no common ns/op samples between the two bundles")
	}
	if res.unbaselined > 0 {
		log.Fatalf("%d benchmark(s) have a zero/negative ns/op baseline; regenerate the old bundle", res.unbaselined)
	}
	if res.regressions > 0 {
		log.Fatalf("%d regression(s) beyond +%.0f%% ns/op", res.regressions, 100*threshold)
	}
	fmt.Println("no regressions")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")

	doCompare := flag.Bool("compare", false, "compare two bundles: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 0.25, "regression threshold as a fraction (0.25 = +25% ns/op)")
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			log.Fatal("usage: benchjson -compare old.json new.json")
		}
		compare(flag.Arg(0), flag.Arg(1), *threshold)
		return
	}
	bundle()
}
