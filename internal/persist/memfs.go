package persist

import (
	"io"
	"os"
	"sync"
)

// MemFS is an in-memory FS with an explicit durability model, built for
// crash testing. Every file has two states: its current content (what
// readers see) and its stable content (what survives a crash, last updated
// by File.Sync). The namespace likewise exists twice: current names and
// stable names, reconciled by SyncDir. Crash() throws away everything that
// was never synced — exactly the data a kernel may lose when the machine
// dies — and reverts the filesystem to its stable state.
//
// The namespace is flat: SyncDir ignores its argument and makes all name
// changes durable, which is the conservative reading for documents that
// keep their journal beside them in one directory.
type MemFS struct {
	mu     sync.Mutex
	cur    map[string]*memInode
	stable map[string]*memInode
}

// memInode is a file's storage, shared by every name that reaches it.
type memInode struct {
	data   []byte // current content
	stable []byte // content as of the last Sync; what a crash reverts to
	synced bool   // whether Sync has ever run (distinguishes "stable empty" from "never synced")
}

// NewMemFS returns an empty filesystem.
func NewMemFS() *MemFS {
	return &MemFS{cur: map[string]*memInode{}, stable: map[string]*memInode{}}
}

// Crash models a whole-machine crash: every file's content reverts to its
// last-synced bytes, and the namespace reverts to its last-SyncDir'd shape.
// Files created but never made durable vanish; renames never made durable
// un-happen. Open handles from before the crash must not be used (FaultFS
// enforces this in tests).
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cur = map[string]*memInode{}
	for name, ino := range m.stable {
		ino.data = append([]byte(nil), ino.stable...)
		m.cur[name] = ino
	}
}

func notExist(op, name string) error {
	return &os.PathError{Op: op, Path: name, Err: os.ErrNotExist}
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.cur[name]
	if ino == nil {
		ino = &memInode{}
		m.cur[name] = ino
	}
	// O_TRUNC drops the current content; the stable content survives until
	// the file is synced (a crash right after Create recovers the old bytes
	// if they were ever durable).
	ino.data = nil
	return &memHandle{fs: m, ino: ino, writable: true}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.cur[name]
	if ino == nil {
		return nil, notExist("open", name)
	}
	return &memHandle{fs: m, ino: ino}, nil
}

func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.cur[name]
	if ino == nil {
		ino = &memInode{}
		m.cur[name] = ino
	}
	return &memHandle{fs: m, ino: ino, writable: true, skipRead: true}, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.cur[oldname]
	if ino == nil {
		return notExist("rename", oldname)
	}
	delete(m.cur, oldname)
	m.cur[newname] = ino
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur[name] == nil {
		return notExist("remove", name)
	}
	delete(m.cur, name)
	return nil
}

func (m *MemFS) Stat(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.cur[name]
	if ino == nil {
		return 0, notExist("stat", name)
	}
	return int64(len(ino.data)), nil
}

func (m *MemFS) SyncDir(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stable = map[string]*memInode{}
	for name, ino := range m.cur {
		m.stable[name] = ino
	}
	return nil
}

// memHandle is an open file. Reads walk the current content; writes append
// (Create truncated already, OpenAppend wants appending anyway).
type memHandle struct {
	fs       *MemFS
	ino      *memInode
	off      int
	writable bool
	skipRead bool // append handles are write-only, like O_WRONLY
	closed   bool
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	if h.skipRead {
		return 0, os.ErrInvalid
	}
	if h.off >= len(h.ino.data) {
		return 0, io.EOF
	}
	n := copy(p, h.ino.data[h.off:])
	h.off += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	if !h.writable {
		return 0, os.ErrInvalid
	}
	h.ino.data = append(h.ino.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	h.ino.stable = append([]byte(nil), h.ino.data...)
	h.ino.synced = true
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	h.closed = true
	return nil
}
