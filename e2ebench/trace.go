package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atk/internal/core"
	"atk/internal/persist"
)

// The traced run. Spans and counts are taken from outside the program, at
// public boundaries: calls the benchmark makes into a module, the
// persist.FS handed to the program, the listener and dialled connections,
// and observer probes registered before and after each text view. Spans
// stay in memory and are written out when the run ends.

// span is one timed interval. Parent is the index of the span open on the
// same lane when this one started (-1 for none); Key is the keystroke index
// that lane was working on (-1 outside a keystroke).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Key    int32  `json:"key"`
}

// tracer collects spans, counters and samples. A nil *tracer records
// nothing, which is how the untraced run pays for none of it.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	counts  map[string]int64
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}, samples: map[string][]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// leaf records a finished span with no children, from any goroutine,
// parented on whatever l has open.
func (t *tracer) leaf(name string, start, end int64, l *lane) {
	if t == nil {
		return
	}
	parent, k := int32(-1), int32(-1)
	if l != nil {
		parent, k = l.cur.Load(), l.key.Load()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, start, end, parent, k})
	t.mu.Unlock()
}

func (t *tracer) add(name string, d int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += d
	t.mu.Unlock()
}

func (t *tracer) count(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// sample records one observation (a duration in µs, or a size).
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) sampleDur(name string, d time.Duration) {
	t.sample(name, float64(d)/float64(time.Microsecond))
}

func (t *tracer) get(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lane is one load goroutine's view of the tracer: its stack of open spans
// and the keystroke it is working on. Only the owning goroutine opens and
// closes spans; other goroutines read cur and key to parent their leaves.
type lane struct {
	tr    *tracer
	stack []int32
	cur   atomic.Int32
	key   atomic.Int32

	// Observer probe times within the current keystroke (owner only).
	firstBefore, firstAfter, lastAfter int64
}

func newLane(tr *tracer) *lane {
	l := &lane{tr: tr}
	l.cur.Store(-1)
	l.key.Store(-1)
	return l
}

// begin opens a span and returns a token for end. It costs nothing when
// tracing is off.
func (l *lane) begin(name string) int32 {
	if l == nil || l.tr == nil {
		return -1
	}
	t := l.tr
	now := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name, now, 0, l.cur.Load(), l.key.Load()})
	t.mu.Unlock()
	l.stack = append(l.stack, id)
	l.cur.Store(id)
	return id
}

// end closes the span begin opened.
func (l *lane) end(id int32) {
	if id < 0 || l == nil || l.tr == nil {
		return
	}
	t := l.tr
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
	if n := len(l.stack); n > 0 {
		l.stack = l.stack[:n-1]
	}
	if n := len(l.stack); n > 0 {
		l.cur.Store(l.stack[n-1])
	} else {
		l.cur.Store(-1)
	}
}

// call runs f inside a span.
func (l *lane) call(name string, f func()) {
	id := l.begin(name)
	f()
	l.end(id)
}

// setKey marks the keystroke the lane works on (-1 for none) and clears
// the probe times.
func (l *lane) setKey(i int) {
	if l == nil {
		return
	}
	l.key.Store(int32(i))
	l.firstBefore, l.firstAfter, l.lastAfter = 0, 0, 0
}

// probe is an observer registered on a document just before (or just
// after) its text view, so that the interval between the two is the view's
// handling of the change notification.
type probe struct {
	l     *lane
	after bool
}

func (p *probe) ObservedChanged(core.DataObject, core.Change) {
	now := p.l.tr.now()
	name := "probe.before"
	if p.after {
		name = "probe.after"
		if p.l.firstAfter == 0 {
			p.l.firstAfter = now
		}
		p.l.lastAfter = now
	} else if p.l.firstBefore == 0 {
		p.l.firstBefore = now
	}
	p.l.tr.leaf(name, now, now, p.l)
}

// --- filesystem wrapper ---

// fileClass names what a path is to the persist layer.
func fileClass(name string) string {
	switch {
	case strings.HasSuffix(name, ".tmp"):
		return "tmp"
	case strings.HasSuffix(name, ".journal"):
		return "journal"
	case strings.HasSuffix(name, ".idx"):
		return "index"
	case strings.HasSuffix(name, ".host"):
		return "hoststate"
	default:
		return "doc"
	}
}

// traceFS wraps the persist.FS handed to the program: every call is a
// span, and reads, writes and syncs are counted per file class.
type traceFS struct {
	inner persist.FS
	tr    *tracer
	l     *lane // the lane whose spans these calls nest under (may be nil)
}

func (f *traceFS) op(name string, fn func() error) error {
	start := f.tr.now()
	err := fn()
	f.tr.leaf("fs."+name, start, f.tr.now(), f.l)
	return err
}

func (f *traceFS) wrap(name string, file persist.File) persist.File {
	return &traceFile{File: file, fs: f, class: fileClass(name)}
}

func (f *traceFS) Create(name string) (persist.File, error) {
	var file persist.File
	err := f.op("create", func() (err error) { file, err = f.inner.Create(name); return })
	if err != nil {
		return nil, err
	}
	return f.wrap(name, file), nil
}

func (f *traceFS) Open(name string) (persist.File, error) {
	var file persist.File
	err := f.op("open", func() (err error) { file, err = f.inner.Open(name); return })
	if err != nil {
		return nil, err
	}
	return f.wrap(name, file), nil
}

func (f *traceFS) OpenAppend(name string) (persist.File, error) {
	var file persist.File
	err := f.op("openappend", func() (err error) { file, err = f.inner.OpenAppend(name); return })
	if err != nil {
		return nil, err
	}
	return f.wrap(name, file), nil
}

func (f *traceFS) Rename(a, b string) error {
	return f.op("rename", func() error { return f.inner.Rename(a, b) })
}

func (f *traceFS) Remove(name string) error {
	return f.op("remove", func() error { return f.inner.Remove(name) })
}

func (f *traceFS) Stat(name string) (size int64, err error) {
	err = f.op("stat", func() (e error) { size, e = f.inner.Stat(name); return })
	return size, err
}

func (f *traceFS) SyncDir(dir string) error {
	f.tr.add("fs.syncdirs", 1)
	return f.op("syncdir", func() error { return f.inner.SyncDir(dir) })
}

// traceFile counts one open file's traffic. It keeps the inner file's
// seekability, which the streaming open needs.
type traceFile struct {
	persist.File
	fs    *traceFS
	class string
}

func (t *traceFile) Read(p []byte) (int, error) {
	start := t.fs.tr.now()
	n, err := t.File.Read(p)
	t.fs.tr.leaf("fs.read."+t.class, start, t.fs.tr.now(), t.fs.l)
	t.fs.tr.add("fs."+t.class+".read_bytes", int64(n))
	return n, err
}

func (t *traceFile) Write(p []byte) (int, error) {
	start := t.fs.tr.now()
	n, err := t.File.Write(p)
	t.fs.tr.leaf("fs.write."+t.class, start, t.fs.tr.now(), t.fs.l)
	t.fs.tr.add("fs."+t.class+".writes", 1)
	t.fs.tr.add("fs."+t.class+".write_bytes", int64(n))
	t.fs.tr.add("fs.write_bytes", int64(n))
	return n, err
}

func (t *traceFile) Sync() error {
	start := t.fs.tr.now()
	err := t.File.Sync()
	end := t.fs.tr.now()
	t.fs.tr.leaf("fs.sync."+t.class, start, end, t.fs.l)
	t.fs.tr.add("fs."+t.class+".syncs", 1)
	t.fs.tr.add("fs.syncs", 1)
	if t.class == "journal" {
		t.fs.tr.sample("fs.journal.sync_us", float64(end-start)/1e3)
	}
	return err
}

func (t *traceFile) Seek(off int64, whence int) (int64, error) {
	s, ok := t.File.(io.Seeker)
	if !ok {
		return 0, fmt.Errorf("e2ebench: %s file is not seekable", t.class)
	}
	return s.Seek(off, whence)
}

// --- connection wrappers ---

// frameScan finds the verb of each logical frame in one direction of a
// docserve byte stream: a frame starts at a physical line that does not
// follow a continuation backslash.
type frameScan struct {
	mid     bool   // inside a physical line
	cont    bool   // the previous physical line ended in a continuation
	trailBS int    // backslashes ending the current partial line
	verb    []byte // verb bytes of the frame being started
	inVerb  bool
}

// feed scans b and calls onVerb with each frame verb that completes in it.
func (s *frameScan) feed(b []byte, onVerb func(verb string)) {
	for len(b) > 0 {
		if !s.mid {
			s.mid = true
			s.inVerb = !s.cont
			s.verb = s.verb[:0]
			s.trailBS = 0
		}
		if s.inVerb {
			for len(b) > 0 && s.inVerb {
				c := b[0]
				if c == ' ' || c == '\n' || len(s.verb) >= 8 {
					s.inVerb = false
					onVerb(string(s.verb))
					break
				}
				s.verb = append(s.verb, c)
				b = b[1:]
			}
			if len(b) == 0 {
				return
			}
		}
		nl := bytes.IndexByte(b, '\n')
		line := b
		if nl >= 0 {
			line = b[:nl]
		}
		if len(line) > 0 {
			bs := 0
			for i := len(line) - 1; i >= 0 && line[i] == '\\'; i-- {
				bs++
			}
			if bs == len(line) {
				s.trailBS += bs
			} else {
				s.trailBS = bs
			}
		}
		if nl < 0 {
			return
		}
		s.cont = s.trailBS%2 == 1
		s.mid = false
		b = b[nl+1:]
	}
}

// traceConn wraps one end of a docserve connection.
type traceConn struct {
	net.Conn
	tr   *tracer
	l    *lane
	role string // "host" for the server's end, else the client's role

	rs, ws frameScan
	// opReads holds the read times of op groups the host has not acked
	// yet (host end only; one reader goroutine, one writer goroutine).
	mu      sync.Mutex
	opReads []int64
	capture bool // keep the physical bytes of the op frames written
	cap     *capturedFrames
}

// capturedFrames keeps the wire bytes of op frames as a client sent them.
type capturedFrames struct {
	mu     sync.Mutex
	frames [][]byte
}

const maxCaptured = 2000

func (c *traceConn) Read(p []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Read(p)
	end := c.tr.now()
	c.tr.leaf("net.read."+c.role, start, end, c.l)
	c.tr.add("net."+c.role+".read_bytes", int64(n))
	if n > 0 && c.role == "host" {
		c.rs.feed(p[:n], func(verb string) {
			if verb == "op" {
				c.mu.Lock()
				c.opReads = append(c.opReads, end)
				c.mu.Unlock()
			}
		})
	}
	return n, err
}

func (c *traceConn) Write(p []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	end := c.tr.now()
	c.tr.leaf("net.write."+c.role, start, end, c.l)
	c.tr.add("net."+c.role+".writes", 1)
	c.tr.add("net."+c.role+".write_bytes", int64(n))
	if c.role == "host" {
		c.ws.feed(p[:n], func(verb string) {
			switch verb {
			case "ok":
				c.mu.Lock()
				if len(c.opReads) > 0 {
					c.tr.sample("host.commit_us", float64(end-c.opReads[0])/1e3)
					c.opReads = c.opReads[1:]
				}
				c.mu.Unlock()
			case "snap", "snapr":
				c.tr.add("net.host.snap_frames", 1)
			}
		})
	} else if c.capture && bytes.HasPrefix(p, []byte("op ")) {
		c.cap.mu.Lock()
		if len(c.cap.frames) < maxCaptured {
			c.cap.frames = append(c.cap.frames, append([]byte(nil), p[:n]...))
		}
		c.cap.mu.Unlock()
	}
	return n, err
}

// traceListener wraps accepted connections as the host's end.
type traceListener struct {
	net.Listener
	tr *tracer
}

func (l *traceListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &traceConn{Conn: c, tr: l.tr, role: "host"}, nil
}
