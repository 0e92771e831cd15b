package config

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzLoadConfig: Load returns a config or an error for any bytes, never a
// panic, and a config it accepts re-encodes to JSON it accepts again. The
// seed corpus holds every configs/*.json, a truncated copy, one with an
// unknown key and one with trailing data after the config object.
func FuzzLoadConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := Load(bytes.NewReader(b))
		if err != nil {
			if c != nil {
				t.Fatal("Load returned a config with its error")
			}
			return
		}
		_ = c.Transport.Validate()
		c.Insitu.InsituConfig()
		enc, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("an accepted config does not re-encode: %v", err)
		}
		if _, err := Load(bytes.NewReader(enc)); err != nil {
			t.Fatalf("a re-encoded config is refused: %v\n%s", err, enc)
		}
	})
}
