// Package fleet is the cluster observability plane for multi-process worlds:
// where internal/monitor watches one process, fleet watches the whole coupled
// run. It has three legs:
//
//   - A durable run-event journal (this file): an append-only, CRC-framed
//     on-disk record of the run's lineage — incarnation starts, world losses
//     (kill -9 detections), resume-point agreements, checkpoint commits,
//     watchdog transitions, flight dumps, in-situ drop milestones. The
//     journal survives process death (a record is durable once write(2)
//     returns — the page cache outlives the process) and turns "the run
//     restarted twice" from folklore into data.
//
//   - Fleet aggregation (aggregate.go, server.go): every process publishes
//     its telemetry/health snapshot, tagged with rank set, incarnation id and
//     transport kind, to an aggregator colocated with the supervisor, which
//     serves /cluster/metrics, /cluster/healthz and /cluster/imbalance.
//
//   - Cross-process trace stitching (tracemerge.go): per-process Chrome
//     traces merge into one causally ordered timeline via the Lamport hop
//     clock carried on every mpi.Envelope.
//
// The package sits above monitor/telemetry/tcptransport and below core: the
// supervisor (core.RunDistributed) holds a *Journal and the cmd wiring holds
// the rest. Disabled means nil, as everywhere else in this codebase: every
// method on a nil *Journal, *Publisher or *DropLedger is a no-op costing one
// nil check (pinned by TestFleetDisabledZeroCost).
package fleet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// Journal event types. EventIncarnationStart is special: recording it bumps
// the journal's incarnation counter, which stamps every subsequent record.
const (
	EventIncarnationStart = "incarnation-start" // a world incarnation begins (dial / redial / relaunch)
	EventWorldLost        = "world-lost"        // a peer died mid-run (WorldLostError — e.g. kill -9 detected)
	EventWorldFailed      = "world-failed"      // the world body failed for a non-loss reason
	EventResumeAgreement  = "resume-agreement"  // ranks agreed on the common resume checkpoint
	EventRecovered        = "recovered"         // state restored, watchdogs re-armed
	EventCheckpoint       = "checkpoint-commit" // a checkpoint was written and committed
	EventWatchdog         = "watchdog"          // a health severity transition
	EventFlightDump       = "flight-dump"       // a flight recorder dump was written
	EventInsituDrops      = "insitu-drops"      // in-situ drop ledger crossed a milestone
	EventRunComplete      = "run-complete"      // the supervisor finished all exchanges
	EventRunFailed        = "run-failed"        // the supervisor gave up (restart budget exhausted)
	EventAuditViolation   = "audit-violation"   // a physics audit budget latched a new severity
	EventPerfAnomaly      = "perf-anomaly"      // the history plane detected a performance regression
)

// Event is one journal record. Fields is free-form but small; Go's JSON
// encoder marshals map keys sorted, so a record's bytes are a pure function
// of its values — which is what makes journal reads byte-stable.
type Event struct {
	Seq         int64          `json:"seq"`
	TimeUnixNs  int64          `json:"time_unix_ns"`
	Type        string         `json:"type"`
	Rank        int            `json:"rank"`
	Incarnation int            `json:"incarnation"`
	Fields      map[string]any `json:"fields,omitempty"`
}

// Time returns the event's wall-clock timestamp.
func (e Event) Time() time.Time { return time.Unix(0, e.TimeUnixNs) }

// Journal record framing, following the checkpoint.Store envelope
// discipline: magic + payload length + CRC-32C (Castagnoli) of the payload,
// then the JSON payload. Each record is independently framed so a reader can
// stop cleanly at a torn tail (the write in flight when a process died).
var journalMagic = [4]byte{'N', 'K', 'J', '1'}

const journalHeaderLen = 12 // magic(4) + length(4) + crc(4)

// maxJournalRecord bounds a single record; a larger length field means the
// file is corrupt, not that someone journaled a 16 MiB event.
const maxJournalRecord = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal is an append-only run-event log bound to one rank of one run. It
// is safe for concurrent use; a nil *Journal ignores every call, so wiring
// is unconditional. Reopening an existing journal (a relaunched process)
// resumes both the sequence number and the incarnation counter from the
// records on disk, which is how a killed rank's lineage stays monotonic
// across process death.
type Journal struct {
	mu          sync.Mutex
	f           *os.File
	path        string
	rank        int
	transport   string
	seq         int64
	incarnation int
	observers   []func(Event)
	now         func() time.Time // test seam
}

// OpenJournal opens (creating if needed) the journal at path for the given
// rank and transport kind, scanning any existing records to resume the
// sequence and incarnation counters. A torn tail — the record in flight when
// the previous process died — is truncated away so new records append to the
// intact prefix rather than after unreadable bytes.
func OpenJournal(path string, rank int, transport string) (*Journal, error) {
	events, valid, err := scanJournal(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err == nil {
		if fi, serr := os.Stat(path); serr == nil && fi.Size() > valid {
			if terr := os.Truncate(path, valid); terr != nil {
				return nil, fmt.Errorf("fleet: truncating torn journal tail: %w", terr)
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: open journal: %w", err)
	}
	j := &Journal{f: f, path: path, rank: rank, transport: transport, now: time.Now}
	for _, e := range events {
		if e.Seq > j.seq {
			j.seq = e.Seq
		}
		if e.Incarnation > j.incarnation {
			j.incarnation = e.Incarnation
		}
	}
	return j, nil
}

// Path returns the journal's on-disk path ("" on nil).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Transport returns the transport kind the journal was opened with.
func (j *Journal) Transport() string {
	if j == nil {
		return ""
	}
	return j.transport
}

// Incarnation returns the current incarnation id (0 before the first
// incarnation-start record).
func (j *Journal) Incarnation() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.incarnation
}

// Observe registers a hook invoked (outside the lock) for every appended
// event — the aggregator subscribes to latch outages and re-arm on recovery.
func (j *Journal) Observe(fn func(Event)) {
	if j == nil || fn == nil {
		return
	}
	j.mu.Lock()
	j.observers = append(j.observers, fn)
	j.mu.Unlock()
}

// Record appends one event, stamping sequence, time, rank and incarnation.
// EventIncarnationStart bumps the incarnation counter first, so the start
// record itself already carries the new id. Append errors are reported on
// the returned event's Fields["journal_error"] rather than failing the
// caller: the journal is an observability surface, and a full disk must not
// take the simulation down with it.
func (j *Journal) Record(typ string, fields map[string]any) Event {
	if j == nil {
		return Event{}
	}
	j.mu.Lock()
	if typ == EventIncarnationStart {
		j.incarnation++
	}
	j.seq++
	e := Event{
		Seq:         j.seq,
		TimeUnixNs:  j.now().UnixNano(),
		Type:        typ,
		Rank:        j.rank,
		Incarnation: j.incarnation,
		Fields:      fields,
	}
	err := j.append(e)
	observers := j.observers
	j.mu.Unlock()

	if err != nil {
		if e.Fields == nil {
			e.Fields = map[string]any{}
		}
		e.Fields["journal_error"] = err.Error()
	}
	for _, fn := range observers {
		fn(e)
	}
	return e
}

// append frames and writes one record; the caller holds the lock.
func (j *Journal) append(e Event) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return err
	}
	buf := make([]byte, journalHeaderLen+len(payload))
	copy(buf, journalMagic[:])
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[8:12], crc32.Checksum(payload, crcTable))
	copy(buf[journalHeaderLen:], payload)
	_, err = j.f.Write(buf)
	return err
}

// Events re-reads the journal from disk — the source of truth, not an
// in-memory mirror, so /events and the CLI see exactly what survived.
func (j *Journal) Events() ([]Event, error) {
	if j == nil {
		return nil, nil
	}
	return ReadJournal(j.Path())
}

// Close closes the underlying file. Records appended after Close are lost
// (and reported via Fields["journal_error"]).
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// ReadJournal decodes every intact record of the journal at path. A torn
// tail — an incomplete header or payload at EOF, the record in flight when a
// process was killed — is tolerated silently: the reader returns the records
// before it. A CRC mismatch or bad magic mid-file is corruption and errors.
func ReadJournal(path string) ([]Event, error) {
	events, _, err := scanJournal(path)
	return events, err
}

// ScanReport describes the integrity of a journal file beyond its decoded
// events: where the intact prefix ends and whether bytes follow it.
type ScanReport struct {
	// ValidOffset is the byte offset just past the last intact record.
	ValidOffset int64
	// FileSize is the journal file's total length.
	FileSize int64
	// Torn reports trailing bytes after the intact prefix that do not form
	// a complete record — the signature of a crash mid-append. OpenJournal
	// truncates such tails before resuming; a torn read-only scan means the
	// writer died and nothing has reopened the journal since.
	Torn bool
}

// ScanJournal decodes the intact prefix like ReadJournal but also reports
// integrity: the returned error is non-nil for rejected mid-file corruption
// (bad magic, CRC mismatch, oversized or undecodable record), and
// ScanReport.Torn flags an incomplete trailing record. `nektarg events`
// uses this to fail loudly instead of pretty-printing a silently shortened
// history.
func ScanJournal(path string) ([]Event, ScanReport, error) {
	events, off, err := scanJournal(path)
	rep := ScanReport{ValidOffset: off}
	if fi, statErr := os.Stat(path); statErr == nil {
		rep.FileSize = fi.Size()
	} else if err == nil {
		err = statErr
	}
	rep.Torn = err == nil && rep.ValidOffset < rep.FileSize
	return events, rep, err
}

// scanJournal decodes records and additionally reports the byte offset of
// the intact prefix (everything before a torn tail).
func scanJournal(path string) ([]Event, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var events []Event
	off := 0
	for off < len(raw) {
		if off+journalHeaderLen > len(raw) {
			break // torn header
		}
		hdr := raw[off : off+journalHeaderLen]
		if [4]byte(hdr[:4]) != journalMagic {
			return events, int64(off), fmt.Errorf("fleet: journal %s: bad record magic at offset %d", path, off)
		}
		n := binary.BigEndian.Uint32(hdr[4:8])
		if n > maxJournalRecord {
			return events, int64(off), fmt.Errorf("fleet: journal %s: record of %d bytes at offset %d exceeds limit", path, n, off)
		}
		if off+journalHeaderLen+int(n) > len(raw) {
			break // torn payload
		}
		payload := raw[off+journalHeaderLen : off+journalHeaderLen+int(n)]
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(hdr[8:12]) {
			return events, int64(off), fmt.Errorf("fleet: journal %s: CRC mismatch at offset %d", path, off)
		}
		var e Event
		if err := json.Unmarshal(payload, &e); err != nil {
			return events, int64(off), fmt.Errorf("fleet: journal %s: record at offset %d: %w", path, off, err)
		}
		events = append(events, e)
		off += journalHeaderLen + int(n)
	}
	return events, int64(off), nil
}

// WriteEventsText renders events as an aligned human-readable table — the
// `nektarg events` CLI output.
func WriteEventsText(w io.Writer, events []Event) {
	fmt.Fprintf(w, "%-5s %-29s %-4s %-4s %-20s %s\n", "SEQ", "TIME", "RANK", "INC", "TYPE", "FIELDS")
	for _, e := range events {
		fields := ""
		if len(e.Fields) > 0 {
			b, err := json.Marshal(e.Fields)
			if err == nil {
				fields = string(b)
			}
		}
		fmt.Fprintf(w, "%-5d %-29s %-4d %-4d %-20s %s\n",
			e.Seq, e.Time().UTC().Format("2006-01-02T15:04:05.000000Z"), e.Rank, e.Incarnation, e.Type, fields)
	}
}
