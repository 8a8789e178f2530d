package docserve

import (
	"sync"
	"sync/atomic"

	"atk/internal/datastream"
)

// Encode-once fan-out. A committed op used to be re-escaped by every
// session's write loop — O(sessions) escapes and string garbage per
// commit. Now the host encodes each outbound frame to wire bytes exactly
// once, into a reference-counted pooled buffer; sessions enqueue the
// shared buffer and their write loops copy bytes to the socket.
//
// Lifetime rules:
//   - getFrame returns a buffer with one reference (the creator's).
//   - Every enqueue retains; the writing session releases after the bytes
//     are on the wire (or when the session dies with frames still queued).
//   - The creator releases its own reference when done fanning out.
//   - At zero references the buffer returns to the pool; nobody may touch
//     it after their release.
//
// One buffer may carry several logical lines (commit coalescing): the
// wire protocol is self-framing — each logical line ends at its first
// non-continuation newline — so receivers need no batching awareness.

type frameBuf struct {
	b    []byte
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return &frameBuf{} }}

// maxPooledFrame keeps snapshot-sized buffers from pinning the pool.
const maxPooledFrame = 64 << 10

// getFrame returns an empty wire buffer holding one reference.
func getFrame() *frameBuf {
	fb := framePool.Get().(*frameBuf)
	fb.b = fb.b[:0]
	fb.refs.Store(1)
	return fb
}

func (fb *frameBuf) retain() { fb.refs.Add(1) }

// release drops one reference; the last one returns the buffer to the
// pool (unless it grew past the pooling cap). Releasing a buffer that is
// already at zero references panics: the extra release would let the pool
// hand the buffer to a new owner while the old one still writes to it —
// silent cross-session frame corruption — so the bug must be loud.
func (fb *frameBuf) release() {
	switch n := fb.refs.Add(-1); {
	case n == 0:
		if cap(fb.b) <= maxPooledFrame {
			framePool.Put(fb)
		}
	case n < 0:
		panic("docserve: frameBuf released more times than retained")
	}
}

// appendLine appends the escaped wire form of one logical line.
func (fb *frameBuf) appendLine(line string) {
	fb.b = datastream.AppendEscaped(fb.b, line)
}

// Host-side framing. The frame encoders in protocol.go build the logical
// line in the host's scratch buffer (host lock held), which is then
// escaped straight into the frame.

// lineScratch returns the reusable logical-line buffer, emptied. Host
// lock held.
func (h *Host) lineScratch() []byte { return h.encScratch[:0] }

// frameLineLocked escapes one logical line, built on lineScratch, into fb
// and keeps the line's storage as the next scratch. Host lock held.
func (h *Host) frameLineLocked(fb *frameBuf, line []byte) {
	fb.b = datastream.AppendEscapedBytes(fb.b, line)
	if cap(line) > maxPooledFrame { // a snapshot blew it up; let it go
		line = nil
	}
	h.encScratch = line[:0]
}

// buildSnapFrames renders a document snapshot as a run of "snapr" range
// frames, each carrying at most perFrame document bytes; a document that
// fits (an empty one included) is one frame at offset 0. Unlike the
// framing above it uses only local scratch — snapshot framing runs in
// attach's unlocked window, where escaping a 100 MB document must not
// stall commits. Each chunk is escaped into one reused wire scratch and
// copied into its frame, so a frame buffer grows once, to its size. Each
// returned frame holds one reference owned by the caller.
func buildSnapFrames(epoch, seq uint64, doc []byte, perFrame int) []*frameBuf {
	frames := make([]*frameBuf, 0, max(1, (len(doc)+perFrame-1)/perFrame))
	chunk := min(perFrame, len(doc)) + 64
	// A document's escaped form is typically about a tenth longer.
	scratch, wire := make([]byte, 0, chunk), make([]byte, 0, chunk+chunk/4)
	for off := 0; off == 0 || off < len(doc); off += perFrame {
		end := min(off+perFrame, len(doc))
		scratch = appendSnapRange(scratch[:0], epoch, seq, len(doc), off, doc[off:end])
		wire = datastream.AppendEscapedBytes(wire[:0], scratch)
		fb := getFrame()
		fb.b = append(fb.b, wire...)
		frames = append(frames, fb)
	}
	return frames
}

// releaseFrames drops the caller's reference on every frame in the list.
func releaseFrames(frames []*frameBuf) {
	for _, fb := range frames {
		fb.release()
	}
}
