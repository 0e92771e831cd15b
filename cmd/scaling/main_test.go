package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenOutput computes every table once and renders it in both formats
// against the committed goldens: the tables are a function of the code alone.
func TestGoldenOutput(t *testing.T) {
	tables, err := compute(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden string
		asJSON bool
	}{{"tables.txt.golden", false}, {"tables.json.golden", true}} {
		var buf bytes.Buffer
		if err := render(&buf, tables, tc.asJSON); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s drifted:\n%s", tc.golden, buf.String())
		}
	}
}

func TestUnknownTable(t *testing.T) {
	if _, err := compute(7); err == nil {
		t.Fatal("table 7 accepted")
	}
}
