package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplacesWholeOrNothing: a successful write installs the new
// contents; a failed one leaves the old file intact; neither leaves a
// temp file behind.
func TestWriteReplacesWholeOrNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := Write(path, put("first")); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, put("second")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "second" {
		t.Fatalf("after a failed write the file reads %q (err %v), want %q", got, err, "second")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the target", len(entries))
	}
}
