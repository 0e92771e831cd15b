package fleet

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadJournal feeds arbitrary bytes, as an NKJ1 file, to the journal's
// readers. Neither ReadJournal nor OpenJournal may panic, and a journal that
// OpenJournal accepts — truncating a torn tail if it finds one — must scan
// back clean: no error and nothing torn. The seed corpus in
// testdata/fuzz/FuzzReadJournal holds a valid two-event journal, a torn
// tail, a flipped CRC, a short header and a wrong magic.
func FuzzReadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.nkj")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = ReadJournal(path) // events or an error; a panic fails
		j, err := OpenJournal(path, 0, "tcp")
		if err != nil {
			return
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, rep, err := ScanJournal(path); err != nil || rep.Torn {
			t.Fatalf("OpenJournal accepted a journal that scans back with error %v, torn %v", err, rep.Torn)
		}
	})
}
