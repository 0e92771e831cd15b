package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func openTestJournal(t *testing.T, path string, rank int) *Journal {
	t.Helper()
	j, err := OpenJournal(path, rank, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.nkj")
	j := openTestJournal(t, path, 3)

	e1 := j.Record(EventIncarnationStart, map[string]any{"exchange": 0})
	e2 := j.Record(EventCheckpoint, map[string]any{"path": "ck-1", "exchange": 1})
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("sequence not monotonic: %d, %d", e1.Seq, e2.Seq)
	}
	if e1.Incarnation != 1 || e2.Incarnation != 1 {
		t.Fatalf("incarnation stamps = %d, %d, want 1, 1", e1.Incarnation, e2.Incarnation)
	}
	if e1.Rank != 3 {
		t.Fatalf("rank stamp = %d, want 3", e1.Rank)
	}

	events, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events, want 2", len(events))
	}
	if events[0].Type != EventIncarnationStart || events[1].Type != EventCheckpoint {
		t.Fatalf("types = %s, %s", events[0].Type, events[1].Type)
	}
	if events[1].Fields["path"] != "ck-1" {
		t.Fatalf("fields = %v", events[1].Fields)
	}
}

func TestJournalReadsAreByteStable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.nkj")
	j := openTestJournal(t, path, 0)
	j.Record(EventIncarnationStart, map[string]any{"restart": 0, "exchange": 0, "zeta": 1, "alpha": 2})
	j.Record(EventWorldLost, map[string]any{"cause": "peer died", "exchange": 2})

	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("journal file bytes changed between reads")
	}
	ev1, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatal("decoded events differ between reads")
	}
}

func TestJournalResumesAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.nkj")
	j1, err := OpenJournal(path, 1, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	j1.Record(EventIncarnationStart, nil)
	j1.Record(EventCheckpoint, nil)
	j1.Close()

	// A relaunched process reopens the same file: seq and incarnation resume.
	j2 := openTestJournal(t, path, 1)
	if got := j2.Incarnation(); got != 1 {
		t.Fatalf("resumed incarnation = %d, want 1", got)
	}
	e := j2.Record(EventIncarnationStart, nil)
	if e.Seq != 3 {
		t.Fatalf("resumed seq = %d, want 3", e.Seq)
	}
	if e.Incarnation != 2 {
		t.Fatalf("second incarnation = %d, want 2", e.Incarnation)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.nkj")
	j := openTestJournal(t, path, 0)
	j.Record(EventIncarnationStart, nil)
	j.Record(EventCheckpoint, nil)
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-way through the last record: the write in flight when a
	// process died.
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("read %d events from torn journal, want 1", len(events))
	}

	// A reopen truncates the torn fragment and appends to the intact prefix,
	// so the lineage stays readable end to end.
	j2, err := OpenJournal(path, 0, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Incarnation() != 1 {
		t.Fatalf("incarnation after torn reopen = %d, want 1", j2.Incarnation())
	}
	j2.Record(EventIncarnationStart, nil)
	events, err = ReadJournal(path)
	if err != nil {
		t.Fatalf("journal unreadable after torn-tail reopen: %v", err)
	}
	if len(events) != 2 || events[1].Incarnation != 2 {
		t.Fatalf("after reopen: %+v", events)
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.nkj")
	j := openTestJournal(t, path, 0)
	j.Record(EventIncarnationStart, nil)
	j.Record(EventCheckpoint, nil)
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[journalHeaderLen+2] ^= 0xff // flip a payload byte of record 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("mid-file corruption must error")
	}
}

// TestScanJournalIntegrityVerdicts pins the contract the `nektarg events`
// subcommand builds its exit code on: an intact journal scans clean, a torn
// tail is flagged (Torn, no error) with the intact prefix returned, and
// mid-file corruption errors while still returning everything before it.
func TestScanJournalIntegrityVerdicts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.nkj")
	j := openTestJournal(t, path, 0)
	j.Record(EventIncarnationStart, nil)
	j.Record(EventCheckpoint, nil)
	j.Record(EventAuditViolation, map[string]any{"budget": "gi.flux:insert"})
	j.Close()

	events, rep, err := ScanJournal(path)
	if err != nil || rep.Torn {
		t.Fatalf("intact journal: err=%v torn=%v", err, rep.Torn)
	}
	if len(events) != 3 || rep.ValidOffset != rep.FileSize {
		t.Fatalf("intact journal: %d events, offset %d of %d", len(events), rep.ValidOffset, rep.FileSize)
	}

	raw, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}

	// Torn tail: chop mid-way through the last record.
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	events, rep, err = ScanJournal(path)
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if !rep.Torn {
		t.Fatal("torn tail not flagged")
	}
	if len(events) != 2 || rep.ValidOffset >= rep.FileSize {
		t.Fatalf("torn journal: %d events, offset %d of %d", len(events), rep.ValidOffset, rep.FileSize)
	}

	// Mid-file corruption: flip a payload byte of the first record.
	bad := append([]byte(nil), raw...)
	bad[journalHeaderLen+2] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	events, rep, err = ScanJournal(path)
	if err == nil {
		t.Fatal("mid-file corruption must error")
	}
	if len(events) != 0 || rep.ValidOffset != 0 {
		t.Fatalf("corrupt-at-0 journal: %d events, offset %d", len(events), rep.ValidOffset)
	}

	// Missing file: error with nothing salvaged (the subcommand's fatal path).
	if _, rep, err = ScanJournal(filepath.Join(t.TempDir(), "absent.nkj")); err == nil || rep.FileSize != 0 {
		t.Fatalf("missing file: err=%v size=%d", err, rep.FileSize)
	}
}

func TestJournalObserversFire(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.nkj")
	j := openTestJournal(t, path, 0)
	var seen []string
	j.Observe(func(e Event) { seen = append(seen, e.Type) })
	j.Record(EventIncarnationStart, nil)
	j.Record(EventWorldLost, nil)
	if len(seen) != 2 || seen[0] != EventIncarnationStart || seen[1] != EventWorldLost {
		t.Fatalf("observer saw %v", seen)
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if e := j.Record(EventWorldLost, nil); e.Seq != 0 {
		t.Fatal("nil journal recorded something")
	}
	j.Observe(func(Event) {})
	if j.Path() != "" || j.Transport() != "" || j.Incarnation() != 0 {
		t.Fatal("nil journal accessors not inert")
	}
	if events, err := j.Events(); events != nil || err != nil {
		t.Fatal("nil journal Events not inert")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalWriteEventsText(t *testing.T) {
	var buf bytes.Buffer
	WriteEventsText(&buf, []Event{
		{Seq: 1, TimeUnixNs: time.Date(2026, 8, 1, 2, 3, 4, 0, time.UTC).UnixNano(),
			Type: EventIncarnationStart, Rank: 0, Incarnation: 1},
		{Seq: 2, Type: EventWorldLost, Rank: 0, Incarnation: 1, Fields: map[string]any{"cause": "x"}},
	})
	out := buf.String()
	for _, want := range []string{"SEQ", "incarnation-start", "world-lost", `{"cause":"x"}`, "2026-08-01T02:03:04"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
