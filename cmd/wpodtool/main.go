// Wpodtool runs the window proper orthogonal decomposition (§3.4) on field
// snapshots read from a CSV file — one snapshot per row, one spatial bin per
// column — and prints the eigenspectrum, the adaptive signal/noise cutoff,
// and (optionally) the reconstructed ensemble average and the extracted
// fluctuation statistics.
//
// Usage:
//
//	go run ./cmd/wpodtool -in snapshots.csv [-cutoff K] [-reconstruct]
//	go run ./cmd/wpodtool -demo            # built-in synthetic demo
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"

	"nektarg/internal/stats"
	"nektarg/internal/wpod"
)

func main() {
	in := flag.String("in", "", "CSV file: one snapshot per row")
	demo := flag.Bool("demo", false, "run on a built-in synthetic two-mode signal")
	cutoff := flag.Int("cutoff", 0, "force the mode cutoff (0 = adaptive)")
	reconstruct := flag.Bool("reconstruct", false, "print the reconstructed ensemble average")
	flag.Parse()

	var snaps [][]float64
	switch {
	case *demo:
		snaps = syntheticSnapshots(48, 160)
		fmt.Println("wpodtool: synthetic demo (two travelling modes + unit noise)")
	case *in != "":
		var err error
		snaps, err = readCSV(*in)
		if err != nil {
			log.Fatalf("wpodtool: %v", err)
		}
	default:
		fmt.Fprintln(os.Stderr, "wpodtool: need -in FILE or -demo")
		os.Exit(2)
	}

	r, err := wpod.Analyze(snaps, wpod.Options{ForceCutoff: *cutoff})
	if err != nil {
		log.Fatalf("wpodtool: %v", err)
	}

	fmt.Printf("snapshots: %d x %d bins\n", r.NumSnapshots(), r.FieldSize())
	fmt.Printf("total POD energy: %.6g\n", r.Energy())
	fmt.Printf("cutoff: %d modes\n\n", r.Cutoff)
	fmt.Printf("%4s %14s %10s\n", "k", "lambda", "cumulative")
	var cum float64
	for k, v := range r.Eigenvalues {
		cum += v
		fmt.Printf("%4d %14.6e %9.4f%%\n", k+1, v, 100*cum/r.Energy())
		if k >= 19 {
			fmt.Printf("     ... (%d more)\n", len(r.Eigenvalues)-20)
			break
		}
	}

	flucts := r.Fluctuations()
	var mom stats.Moments
	for _, row := range flucts {
		mom.AddAll(row)
	}
	fmt.Printf("\nfluctuations: mean %.4g, sigma %.4g\n", mom.Mean(), mom.StdDev())

	if *reconstruct {
		rec := r.Reconstruct(0)
		w := csv.NewWriter(os.Stdout)
		for _, row := range rec {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = strconv.FormatFloat(v, 'g', 8, 64)
			}
			if err := w.Write(cells); err != nil {
				log.Fatal(err)
			}
		}
		w.Flush()
	}
}

// readCSV loads snapshots from a CSV file.
func readCSV(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = make([]float64, len(row))
		for j, cell := range row {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("row %d col %d: %w", i+1, j+1, err)
			}
			out[i][j] = v
		}
	}
	return out, nil
}

// syntheticSnapshots builds the demo signal.
func syntheticSnapshots(n, m int) [][]float64 {
	out := make([][]float64, n)
	rng := uint64(0x12345)
	next := func() float64 {
		// xorshift-based uniform noise in [-sqrt(3), sqrt(3)].
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return (float64(2*float64(rng>>11)/float64(1<<53)) - 1) * math.Sqrt(3)
	}
	for k := range out {
		t := float64(k) / float64(n)
		row := make([]float64, m)
		for i := range row {
			x := float64(i) / float64(m)
			row[i] = float64(4*math.Sin(2*math.Pi*t)*math.Sin(2*math.Pi*x)) +
				float64(2*math.Cos(2*math.Pi*t)*math.Cos(6*math.Pi*x)) + float64(next())
		}
		out[k] = row
	}
	return out
}
