package ingest

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
)

// File is the slice of *os.File the journal's append path and the
// freeze's writes need. The check harness substitutes fault-injecting
// implementations to prove the recovery contract under write and fsync
// failures.
type File interface {
	io.Writer
	// Sync flushes the file's dirty state to stable storage.
	Sync() error
	io.Closer
}

// FS is the file-operation seam of the journal directory: everything the
// append path and the freeze write goes through it, so the crash-replay
// harness can inject failures and kill-points without touching the real
// recovery-side reads (which always run against what actually reached
// the disk image).
type FS interface {
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// Remove unlinks a fully frozen-over segment, a superseded temp file
	// or one a failed freeze leaves.
	Remove(path string) error
	// SyncDir fsyncs the directory so a created, renamed or removed name
	// is itself durable.
	SyncDir(dir string) error
}

// Renamer is the FS method a freeze moves a finished temp file into
// place with. It is optional: an FS without it renames through the os
// package, so an FS written for the journal alone keeps working.
type Renamer interface {
	Rename(oldpath, newpath string) error
}

// osFS is the production FS.
type osFS struct{}

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) SyncDir(dir string) error { return syncDir(dir) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// syncDir fsyncs a directory; rename/create/remove durability on linux
// requires it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// tmpSuffix names the temp file writeAtomic fills before renaming it
// over its target. Recover deletes every name matching tmpPattern, which
// also covers the random-suffixed temp names (".tmp-<n>") earlier
// releases left.
const (
	tmpSuffix  = ".tmp"
	tmpPattern = "*" + tmpSuffix + "*"
)

// writeAtomic writes name under dir crash-atomically through fs: fill
// writes the content through a buffer into name's temp file, which is
// fsynced, renamed over name, and the directory fsynced. A failure up to
// the rename removes the temp file and leaves name as it was.
func writeAtomic(fs FS, dir, name string, fill func(io.Writer) error) error {
	path := filepath.Join(dir, name)
	tmp := path + tmpSuffix
	// A temp file that outlived a failed freeze would be appended to.
	if err := fs.Remove(tmp); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f, err := fs.OpenAppend(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if r, ok := fs.(Renamer); ok {
			err = r.Rename(tmp, path)
		} else {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(dir)
}
