// Package golden compares a test's deterministic output with a file
// checked in under the test's testdata directory, byte for byte.
//
// The simulator's output is a pure function of its seeds, so tests pin
// it as golden files: a difference means a change moved a schedule or a
// step count. A change that means to do so deletes the files it moves and
// runs the test once; Check then writes each missing file from the run
// and fails, so that the new files are read and committed on purpose.
package golden

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Check fails t unless got equals the contents of the file at path,
// naming the first line that differs. A missing file is written from got,
// and t still fails.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote it from this run: read it, commit it and run the test again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
