package persist

import (
	"fmt"
	"io"
	"path/filepath"
)

// AtomicWrite replaces path with the bytes produced by write, so that at
// every instant path holds either its old content or the complete new
// content — never a prefix — and returns only once the new content is
// durable. The sequence is the classic one: write to a temporary file in
// the same directory, fsync the file, close it, rename it over path, then
// fsync the directory so the rename itself is durable. On any error the
// old file is untouched and the temporary is removed (best effort).
func AtomicWrite(fsys FS, path string, write func(io.Writer) error) error {
	if err := replaceFile(fsys, path, true, write); err != nil {
		return err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		// The rename happened; only its durability is in doubt. Report it —
		// callers must not claim durability they don't have.
		return fmt.Errorf("persist: syncing directory of %s: %w", path, err)
	}
	return nil
}

// replaceFile writes path's new content into a temporary file beside it
// and renames that over path, fsyncing the temporary first when sync is
// set. It is AtomicWrite without the directory fsync, and, without sync,
// the whole write of a file that needs no flush: one whose readers reject
// it when a crash leaves it missing, empty, torn, or stale, and whose
// writer makes it durable later if it must (the offset index, an empty
// journal).
func replaceFile(fsys FS, path string, sync bool, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: creating %s: %w", tmp, err)
	}
	cleanup := func(err error) error {
		f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return cleanup(fmt.Errorf("persist: writing %s: %w", tmp, err))
	}
	if sync {
		if err := f.Sync(); err != nil {
			return cleanup(fmt.Errorf("persist: syncing %s: %w", tmp, err))
		}
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("persist: closing %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("persist: renaming %s: %w", tmp, err)
	}
	return nil
}
