package docserve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"atk/internal/datastream"
	"atk/internal/persist"
)

// The frameBuf refcount/pool lifecycle was previously exercised only
// through the fan-out benches; these tests pin it directly.

// TestFrameBufRefCounting pins the basic lifetime rules: getFrame hands
// out one reference, retain adds, release subtracts, and the buffer's
// bytes stay intact while any reference is outstanding — even under pool
// churn that would clobber a buffer wrongly returned to the pool.
func TestFrameBufRefCounting(t *testing.T) {
	fb := getFrame()
	if got := fb.refs.Load(); got != 1 {
		t.Fatalf("fresh frame has %d refs, want 1", got)
	}
	if len(fb.b) != 0 {
		t.Fatalf("fresh frame carries %d stale bytes", len(fb.b))
	}
	fb.appendLine("op 1 w 1 i0:x")
	want := append([]byte(nil), fb.b...)

	// A session enqueues (retain), the creator finishes fanning out
	// (release): one reference remains, so the buffer must NOT return to
	// the pool.
	fb.retain()
	fb.release()
	if got := fb.refs.Load(); got != 1 {
		t.Fatalf("after retain+release, %d refs, want 1", got)
	}

	// Pool churn: if release had pooled the buffer while the session still
	// held it, one of these would reuse and overwrite it.
	for i := 0; i < 64; i++ {
		g := getFrame()
		g.appendLine("op 999 clobber 1 i0:JUNKJUNKJUNK")
		g.release()
	}
	if !bytes.Equal(fb.b, want) {
		t.Fatalf("held frame mutated under pool churn:\n got %q\nwant %q", fb.b, want)
	}
	fb.release() // the session's reference; now it may pool
}

// TestFrameBufPoolRoundTrip pins that a fully released buffer comes back
// from getFrame reset: length zero, one reference, no stale bytes —
// whatever identity the pool hands out.
func TestFrameBufPoolRoundTrip(t *testing.T) {
	fb := getFrame()
	fb.appendLine("op 7 w 7 i0:recycled")
	fb.release()

	got := getFrame()
	defer got.release()
	if got.refs.Load() != 1 {
		t.Fatalf("recycled frame has %d refs, want 1", got.refs.Load())
	}
	if len(got.b) != 0 {
		t.Fatalf("recycled frame carries %d stale bytes: %q", len(got.b), got.b)
	}
	got.appendLine("ok 1 1 1")
	if want := datastream.AppendEscaped(nil, "ok 1 1 1"); !bytes.Equal(got.b, want) {
		t.Fatalf("appendLine on recycled frame = %q, want %q", got.b, want)
	}
}

// TestFrameBufOversizedNotPooled pins the pooling cap: a buffer that grew
// past maxPooledFrame is dropped at final release, not recycled, so one
// snapshot-sized frame cannot pin megabytes in the pool.
func TestFrameBufOversizedNotPooled(t *testing.T) {
	fb := getFrame()
	fb.b = append(fb.b, make([]byte, maxPooledFrame+1)...)
	fb.release()
	for i := 0; i < 4; i++ {
		g := getFrame()
		if g == fb {
			t.Fatal("oversized frame came back from the pool")
		}
		defer g.release()
	}
}

// TestFrameBufDoubleReleasePanics pins that over-releasing is loud: a
// double release would hand the buffer to a new owner while the old one
// can still write it, so the refcount going negative must panic rather
// than corrupt a stranger's frame.
func TestFrameBufDoubleReleasePanics(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: over-release did not panic", name)
			}
		}()
		f()
	}
	check("double release", func() {
		fb := getFrame()
		fb.b = append(fb.b, make([]byte, maxPooledFrame+1)...) // keep it out of the pool
		fb.release()
		fb.release()
	})
	check("release past retain", func() {
		fb := getFrame()
		fb.retain()
		fb.b = append(fb.b, make([]byte, maxPooledFrame+1)...)
		fb.release()
		fb.release()
		fb.release()
	})
}

// TestSnapFramesGrowOnce: each snapshot chunk is escaped into a reused
// scratch and copied into its frame, so a frame buffer is allocated once
// at its size instead of growing by doubling while the chunk is escaped
// into it. Building the frames of a 1 MB document at 256 KiB per frame
// allocates each frame's frameBuf and its buffer, plus a fixed few: the
// frame list, the range and wire scratch, and the pool's bookkeeping.
// Escaping straight into each frame made 112 allocations here.
func TestSnapFramesGrowOnce(t *testing.T) {
	var sb strings.Builder
	for i := 0; sb.Len() < 1<<20; i++ {
		fmt.Fprintf(&sb, "line %05d: the quick brown fox jumps over the lazy dog\n", i)
	}
	doc, err := persist.EncodeDocument(newDoc(t, sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	const perFrame = 256 << 10
	frames := (len(doc) + perFrame - 1) / perFrame
	allocs := testing.AllocsPerRun(5, func() {
		releaseFrames(buildSnapFrames(1, 2, doc, perFrame))
	})
	if limit := float64(2*frames + 5); allocs > limit {
		t.Fatalf("%d frames of a %d-byte document: %.0f allocations, want at most %.0f",
			frames, len(doc), allocs, limit)
	}
}
