package persist

import (
	"errors"
	"fmt"
	"sync"
)

// Fault injection errors.
var (
	// ErrCrashed is returned by every operation after an injected crash:
	// the process is "dead" and must reopen through the underlying FS.
	ErrCrashed = errors.New("persist: injected crash")
	// ErrNoSpace is the injected ENOSPC.
	ErrNoSpace = errors.New("persist: injected ENOSPC (no space left on device)")
	// ErrSyncFailed is the injected fsync failure.
	ErrSyncFailed = errors.New("persist: injected fsync failure")
)

// FaultFS wraps an FS and injects faults at chosen points. It counts the
// state-changing operations (Create, OpenAppend, Rename, Remove, Write,
// Sync, SyncDir, Close of a writable file) so a test can first run a
// scenario cleanly to learn its length, then re-run it once per crash
// point:
//
//	CrashAfter = n  // the first n counted ops succeed; the op after
//	                // triggers OnCrash (typically MemFS.Crash) and every
//	                // operation thereafter fails with ErrCrashed
//	FailWriteAt = n // the nth Write writes half its bytes, returns ErrNoSpace
//	FailSyncAt = n  // the nth file Sync fails with ErrSyncFailed
//
// Recurring faults model a persistently sick disk rather than a single
// incident: with FailWriteEvery/FailSyncEvery set to n, every nth write
// (or fsync) fails the same way, indefinitely. They are armed and
// disarmed through SetRecurring, which is safe to call while another
// goroutine is using the filesystem — the SLO fault scenarios flip them
// on for an injection phase while a document host keeps serving.
//
// Zero values disable each fault. Reads are not counted (they change no
// state) but still fail after a crash, so a buggy caller cannot keep
// using a dead filesystem.
type FaultFS struct {
	Inner FS

	CrashAfter  int
	FailWriteAt int
	FailSyncAt  int
	OnCrash     func()

	mu             sync.Mutex
	failWriteEvery int
	failSyncEvery  int
	recurred       int
	ops            int
	writes         int
	syncs          int
	crashed        bool
	trace          []string
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner FS) *FaultFS { return &FaultFS{Inner: inner} }

// Ops returns the number of counted operations so far; after a clean run
// it is the number of distinct crash points.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the injected crash has triggered.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Trace returns the counted operations in order (for failure messages).
func (f *FaultFS) Trace() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.trace
}

// SetRecurring arms (or, with zeros, disarms) the recurring fault modes:
// every writeEvery-th write fails with a short write and ErrNoSpace, and
// every syncEvery-th file Sync fails with ErrSyncFailed. Unlike the
// one-shot fields it may be called while other goroutines are using the
// filesystem.
func (f *FaultFS) SetRecurring(writeEvery, syncEvery int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWriteEvery = writeEvery
	f.failSyncEvery = syncEvery
}

// Recurred returns how many recurring faults have fired.
func (f *FaultFS) Recurred() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.recurred
}

// step counts one state-changing op and triggers the crash point. The
// crash fires *instead of* op number CrashAfter: the first CrashAfter-1
// ops complete and the machine dies before this one reaches the kernel.
// Caller holds f.mu.
func (f *FaultFS) step(op string) error {
	if f.crashed {
		return ErrCrashed
	}
	f.ops++
	if f.CrashAfter > 0 && f.ops >= f.CrashAfter {
		f.crashed = true
		if f.OnCrash != nil {
			f.OnCrash()
		}
		return ErrCrashed
	}
	f.trace = append(f.trace, fmt.Sprintf("%d:%s", f.ops, op))
	return nil
}

// stepOne takes the lock for one counted op.
func (f *FaultFS) stepOne(op string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.step(op)
}

func (f *FaultFS) Create(name string) (File, error) {
	if err := f.stepOne("create " + name); err != nil {
		return nil, err
	}
	inner, err := f.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, name: name, writable: true}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	inner, err := f.Inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, name: name}, nil
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	if err := f.stepOne("openappend " + name); err != nil {
		return nil, err
	}
	inner, err := f.Inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, name: name, writable: true}, nil
}

func (f *FaultFS) Rename(oldname, newname string) error {
	if err := f.stepOne("rename " + oldname + " -> " + newname); err != nil {
		return err
	}
	return f.Inner.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.stepOne("remove " + name); err != nil {
		return err
	}
	return f.Inner.Remove(name)
}

func (f *FaultFS) Stat(name string) (int64, error) {
	if f.Crashed() {
		return 0, ErrCrashed
	}
	return f.Inner.Stat(name)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.stepOne("syncdir " + dir); err != nil {
		return err
	}
	return f.Inner.SyncDir(dir)
}

// faultFile routes a file's state-changing calls through the injector.
type faultFile struct {
	fs       *FaultFS
	inner    File
	name     string
	writable bool
}

func (h *faultFile) Read(p []byte) (int, error) {
	if h.fs.Crashed() {
		return 0, ErrCrashed
	}
	return h.inner.Read(p)
}

func (h *faultFile) Write(p []byte) (int, error) {
	f := h.fs
	f.mu.Lock()
	if err := f.step("write " + h.name); err != nil {
		f.mu.Unlock()
		return 0, err
	}
	f.writes++
	fail := f.FailWriteAt > 0 && f.writes == f.FailWriteAt
	if f.failWriteEvery > 0 && f.writes%f.failWriteEvery == 0 {
		fail = true
		f.recurred++
	}
	f.mu.Unlock()
	if fail {
		// ENOSPC after a short write: half the bytes land, the rest don't.
		n, _ := h.inner.Write(p[:len(p)/2])
		return n, ErrNoSpace
	}
	return h.inner.Write(p)
}

func (h *faultFile) Sync() error {
	f := h.fs
	f.mu.Lock()
	if err := f.step("fsync " + h.name); err != nil {
		f.mu.Unlock()
		return err
	}
	f.syncs++
	fail := f.FailSyncAt > 0 && f.syncs == f.FailSyncAt
	if f.failSyncEvery > 0 && f.syncs%f.failSyncEvery == 0 {
		fail = true
		f.recurred++
	}
	f.mu.Unlock()
	if fail {
		return ErrSyncFailed
	}
	return h.inner.Sync()
}

func (h *faultFile) Close() error {
	if !h.writable {
		if h.fs.Crashed() {
			return ErrCrashed
		}
		return h.inner.Close()
	}
	if err := h.fs.stepOne("close " + h.name); err != nil {
		return err
	}
	return h.inner.Close()
}
