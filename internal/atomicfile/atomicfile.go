// Package atomicfile installs a file's new contents all at once and
// durably: written to a temp file in the target's directory, fsynced,
// renamed over the target, and the directory fsynced so the rename
// itself survives a crash. A reader, or the next start after a crash,
// sees either the old file or the complete new one, never an empty or
// torn one.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write installs at path whatever write puts into the writer it is
// given. On any error the target is left untouched and the temp file
// is removed.
func Write(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
