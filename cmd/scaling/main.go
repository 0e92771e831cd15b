// Scaling regenerates the performance tables of the paper's evaluation
// (Tables 2-5 and the §4.1 extended-run claims) from the calibrated machine
// models and the real partitioner; see EXPERIMENTS.md for methodology.
//
// Usage:
//
//	go run ./cmd/scaling            # all tables
//	go run ./cmd/scaling -table 3   # one table
//	go run ./cmd/scaling -json      # machine-readable output
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"nektarg/internal/perfmodel"
)

func main() {
	table := flag.Int("table", 0, "table to print (2-5), 0 = all plus extended runs")
	asJSON := flag.Bool("json", false, "emit the tables as JSON instead of text")
	flag.Parse()
	tables, err := compute(*table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(2)
	}
	if err := render(os.Stdout, tables, *asJSON); err != nil {
		log.Fatal(err)
	}
}

// compute builds one table (2-5), or with n == 0 all four plus the extended
// runs, in that order.
func compute(n int) ([]*perfmodel.Table, error) {
	builders := map[int]func() *perfmodel.Table{
		2: perfmodel.Table2, 3: perfmodel.Table3, 4: perfmodel.Table4, 5: perfmodel.Table5,
	}
	if n != 0 {
		build, ok := builders[n]
		if !ok {
			return nil, fmt.Errorf("unknown table %d (want 2-5)", n)
		}
		return []*perfmodel.Table{build()}, nil
	}
	var tables []*perfmodel.Table
	for _, n := range []int{2, 3, 4, 5} {
		tables = append(tables, builders[n]())
	}
	return append(tables, perfmodel.ExtendedWeakScaling()), nil
}

// render writes the tables as text, one after another, or as one indented
// JSON array.
func render(w io.Writer, tables []*perfmodel.Table, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(tables)
	}
	for _, t := range tables {
		if _, err := fmt.Fprintln(w, t); err != nil {
			return err
		}
	}
	return nil
}
