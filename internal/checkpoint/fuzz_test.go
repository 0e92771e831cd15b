package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// FuzzReadFile feeds arbitrary bytes, as a checkpoint file, to ReadFile: it
// must return a bundle or an error, never panic. The seed corpus in
// testdata/fuzz/FuzzReadFile holds sampleBundle(5) as WriteFile writes it
// (valid-bundle) and that file with a truncated header, a wrong magic, a
// length field one past the payload, a flipped CRC byte and a flipped payload
// byte. The valid seed must read back DeepEqual to the bundle it was written
// from, so a stale corpus fails here instead of fuzzing nothing but errors.
func FuzzReadFile(f *testing.F) {
	corpus, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadFile", "valid-bundle"))
	if err != nil {
		f.Fatal(err)
	}
	lit := bytes.TrimPrefix(bytes.TrimSpace(corpus), []byte("go test fuzz v1\n"))
	lit = bytes.TrimSuffix(bytes.TrimPrefix(lit, []byte("[]byte(")), []byte(")"))
	valid, err := strconv.Unquote(string(lit))
	if err != nil {
		f.Fatalf("valid-bundle seed: %v", err)
	}
	path := filepath.Join(f.TempDir(), "valid.ckpt")
	if err := os.WriteFile(path, []byte(valid), 0o644); err != nil {
		f.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		f.Fatalf("valid-bundle seed does not read: %v", err)
	}
	if !reflect.DeepEqual(got, sampleBundle(f, 5)) {
		f.Fatal("valid-bundle seed does not read back DeepEqual to sampleBundle(5)")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if c, err := ReadFile(path); c == nil && err == nil {
			t.Fatal("ReadFile returned neither a bundle nor an error")
		}
	})
}
