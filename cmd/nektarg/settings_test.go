package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nektarg/internal/config"
)

var updateSettings = flag.Bool("update-settings", false, "rewrite testdata/settings.txt")

// TestSettingsSurface pins every setting a run can be given: the flags
// parseArgs defines and every JSON key path config.Load accepts. A setting
// added or removed shows up as a diff of testdata/settings.txt.
func TestSettingsSurface(t *testing.T) {
	fs := flag.NewFlagSet("nektarg", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, _, err := parseArgs(fs, []string{"-config", filepath.Join("testdata", "defaults.json")}); err != nil {
		t.Fatal(err)
	}
	var flags []string
	fs.VisitAll(func(f *flag.Flag) { flags = append(flags, "-"+f.Name) })
	keys := jsonKeys("", reflect.TypeOf(config.Config{}))
	sort.Strings(keys)

	got := fmt.Sprintf("# flags (%d)\n%s\n# config keys (%d)\n%s\n",
		len(flags), strings.Join(flags, "\n"), len(keys), strings.Join(keys, "\n"))
	path := filepath.Join("testdata", "settings.txt")
	if *updateSettings {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("settings surface changed; %s should read:\n%s", path, got)
	}
}

// jsonKeys lists the key path of every object member under t: objects as
// "a.b", members of array elements as "a[].b". Fixed-size arrays of numbers
// or bools (vectors, boxes) are leaves.
func jsonKeys(prefix string, t reflect.Type) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" || !f.IsExported() {
			continue
		}
		if name == "" {
			name = f.Name
		}
		path := prefix + name
		keys = append(keys, path)
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		switch {
		case ft.Kind() == reflect.Struct:
			keys = append(keys, jsonKeys(path+".", ft)...)
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct:
			keys = append(keys, jsonKeys(path+"[].", ft.Elem())...)
		}
	}
	return keys
}
