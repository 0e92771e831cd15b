package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// On-disk envelope: gob alone does not detect single flipped bytes (a flip
// inside a float payload decodes "successfully" into wrong physics), so the
// file layer wraps the gob stream with a magic tag, the payload length and a
// CRC-32C of the payload. Any bit flip, truncation or torn write then fails
// loudly at ReadFile instead of silently resuming a corrupted state.
var fileMagic = [4]byte{'N', 'K', 'C', 'P'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// envelopeHeaderLen is magic(4) + length(8) + crc(4).
const envelopeHeaderLen = 16

// envelopeHeader returns the magic, length and CRC-32C that precede payload
// on disk.
func envelopeHeader(payload []byte) (hdr [envelopeHeaderLen]byte) {
	copy(hdr[:4], fileMagic[:])
	binary.BigEndian.PutUint64(hdr[4:12], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, crcTable))
	return hdr
}

// WriteFile atomically persists a bundle at path using the flight-recorder
// pattern: encode into path+".tmp", fsync, then rename over the final name.
// A crash mid-write leaves at worst a stale .tmp next to the previous good
// checkpoint; it can never truncate or corrupt an existing file.
func WriteFile(path string, c *Coupled) error {
	var payload bytes.Buffer
	if err := Save(&payload, c); err != nil {
		return err
	}
	hdr := envelopeHeader(payload.Bytes())

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if _, err := f.Write(hdr[:]); err != nil {
		return fail(err)
	}
	if _, err := f.Write(payload.Bytes()); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return nil
}

// ReadFile loads a bundle persisted by WriteFile. Every failure mode —
// missing file, missing magic, truncation, flipped bytes (caught by the
// CRC), version mismatch — comes back as a wrapped error, never a panic: the
// restart path must survive whatever the filesystem hands it.
func ReadFile(path string) (*Coupled, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open: %w", err)
	}
	name := filepath.Base(path)
	if len(raw) < 4 || !bytes.Equal(raw[:4], fileMagic[:]) {
		return nil, fmt.Errorf("checkpoint: %s: no NKCP envelope magic (not a checkpoint file)", name)
	}
	if len(raw) < envelopeHeaderLen {
		return nil, fmt.Errorf("checkpoint: %s: truncated envelope header (%d bytes)", name, len(raw))
	}
	want := binary.BigEndian.Uint64(raw[4:12])
	payload := raw[envelopeHeaderLen:]
	if uint64(len(payload)) != want {
		return nil, fmt.Errorf("checkpoint: %s: payload %d bytes, envelope says %d (torn write)",
			name, len(payload), want)
	}
	sum := binary.BigEndian.Uint32(raw[12:16])
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return nil, fmt.Errorf("checkpoint: %s: CRC mismatch %08x != %08x (corrupted)", name, got, sum)
	}
	c, err := Load(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", name, err)
	}
	return c, nil
}

// Store manages a directory of numbered checkpoints with retention: one file
// per completed exchange count, oldest pruned beyond Keep.
type Store struct {
	// Dir is the checkpoint directory, created on first write.
	Dir string
	// Keep bounds how many checkpoint files are retained (oldest pruned
	// first); values < 1 mean DefaultKeep.
	Keep int
}

// DefaultKeep is how many checkpoint files a Store retains by default: the
// newest plus a predecessor, so one torn or corrupted file still leaves a
// resumable state behind.
const DefaultKeep = 2

// prefix/suffix of managed checkpoint file names: checkpoint-00000042.ckpt.
const (
	filePrefix = "checkpoint-"
	fileSuffix = ".ckpt"
)

// fileName returns the managed name for a bundle at the given exchange count.
func fileName(exchanges int) string {
	return fmt.Sprintf("%s%08d%s", filePrefix, exchanges, fileSuffix)
}

// keep returns the effective retention count.
func (s *Store) keep() int {
	if s.Keep < 1 {
		return DefaultKeep
	}
	return s.Keep
}

// Write persists the bundle under its exchange-count name, prunes old files
// beyond the retention bound, and returns the written path.
func (s *Store) Write(c *Coupled) (string, error) {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: store dir: %w", err)
	}
	path := filepath.Join(s.Dir, fileName(c.Exchanges))
	if err := WriteFile(path, c); err != nil {
		return "", err
	}
	s.prune()
	return path, nil
}

// List returns the managed checkpoint paths in ascending exchange order.
// A missing directory is an empty list, not an error.
func (s *Store) List() []string {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		paths = append(paths, filepath.Join(s.Dir, name))
	}
	sort.Strings(paths) // zero-padded exchange counts sort lexicographically
	return paths
}

// Latest scans newest-first for the most recent checkpoint that actually
// loads, skipping corrupt or torn files — the "last good checkpoint" rule of
// the recover-and-resume loop. It returns os.ErrNotExist (wrapped) when the
// directory holds no loadable checkpoint.
func (s *Store) Latest() (string, *Coupled, error) {
	paths := s.List()
	var firstErr error
	for i := len(paths) - 1; i >= 0; i-- {
		c, err := ReadFile(paths[i])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return paths[i], c, nil
	}
	if firstErr != nil {
		return "", nil, fmt.Errorf("checkpoint: no loadable checkpoint in %s (newest failure: %w)", s.Dir, firstErr)
	}
	return "", nil, fmt.Errorf("checkpoint: no checkpoint in %s: %w", s.Dir, os.ErrNotExist)
}

// At loads the checkpoint written at exactly the given exchange count. The
// distributed resume protocol needs this precision: after a process failure,
// every rank restores the *common* newest exchange (the minimum over ranks'
// latest checkpoints), not its own newest — a rank that checkpointed ahead
// of the crash must roll back to where the world agrees.
func (s *Store) At(exchanges int) (string, *Coupled, error) {
	path := filepath.Join(s.Dir, fileName(exchanges))
	c, err := ReadFile(path)
	if err != nil {
		return "", nil, fmt.Errorf("checkpoint: no usable checkpoint at exchange %d in %s: %w", exchanges, s.Dir, err)
	}
	return path, c, nil
}

// prune removes the oldest managed files beyond the retention bound.
// Pruning is best-effort: a failed remove never fails the write that
// triggered it.
func (s *Store) prune() {
	paths := s.List()
	for len(paths) > s.keep() {
		os.Remove(paths[0])
		paths = paths[1:]
	}
}
