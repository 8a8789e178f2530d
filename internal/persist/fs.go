// Package persist is the crash-safe document lifecycle layer: atomic
// whole-file saves (AtomicWrite), an append-only write-ahead journal of
// edit operations with per-record CRCs (Journal), and the DocFile type
// tying both to a text document so that after a crash — at any point, with
// any injected filesystem fault — reopening yields either the last saved
// document or the saved document plus a durable prefix of the journaled
// edits, never a torn hybrid.
//
// All file access goes through the FS seam so tests can substitute MemFS
// (an in-memory filesystem with explicit durability semantics) wrapped in
// FaultFS (which injects ENOSPC, short writes, fsync failures, and
// crash-points between syscalls).
package persist

import (
	"bytes"
	"errors"
	"io"
	"os"
)

// File is the slice of *os.File the persistence layer needs.
type File interface {
	io.Reader
	io.Writer
	// Sync flushes the file's written data to stable storage.
	Sync() error
	Close() error
}

// FS is the filesystem seam. Semantics follow POSIX: written data is
// durable only after File.Sync; created, renamed, or removed names are
// durable only after SyncDir on the containing directory.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname's file.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Stat reports whether name exists and its size.
	Stat(name string) (size int64, err error)
	// SyncDir makes the directory's name changes durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}
func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Stat(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
func (osFS) SyncDir(dir string) error {
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

// ReadFile reads the whole of name through fsys into a buffer sized
// from the file, then reads on to EOF, so a file that grows meanwhile is
// still read whole.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, _ := fsys.Stat(name) // without a size the buffer just grows
	var buf bytes.Buffer
	buf.Grow(int(size) + bytes.MinRead) // the EOF read needs room too
	_, err = buf.ReadFrom(f)
	return buf.Bytes(), err
}

// Exists reports whether name exists in fsys.
func Exists(fsys FS, name string) bool {
	_, err := fsys.Stat(name)
	return err == nil
}

// IsNotExist reports whether err means "no such file" from any FS
// implementation.
func IsNotExist(err error) bool {
	return errors.Is(err, os.ErrNotExist)
}
