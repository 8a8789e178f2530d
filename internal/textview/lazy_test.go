package textview

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"atk/internal/chunked"
	"atk/internal/graphics"
	"atk/internal/wsys"
)

// linesEqual compares two laid-out line tables field by field, rune
// ranges and segments included (fonts are cached by descriptor, so
// pointer equality holds across views).
func linesEqual(a, b chunked.Seq[line]) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, j := a.At(0), b.At(0); i.Ok(); i.Next() {
		x, y := placedAt(i), placedAt(j)
		j.Next()
		if x.start != y.start || x.end != y.end || x.nlEnd != y.nlEnd ||
			x.h != y.h || x.ascent != y.ascent || x.indent != y.indent ||
			len(x.segs) != len(y.segs) {
			return false
		}
		for j := range x.segs {
			if x.segs[j] != y.segs[j] {
				return false
			}
		}
	}
	return true
}

// TestLayoutLineMultiRunSegments exercises the span-at-a-time style
// advance: a line crossing several style runs must split into one
// segment per font change, contiguous and in order.
func TestLayoutLineMultiRunSegments(t *testing.T) {
	v, d := newView(t, "plain bold italic end", 400, 100)
	if err := d.SetStyle(6, 10, "bold"); err != nil {
		t.Fatal(err)
	}
	if err := d.SetStyle(11, 17, "italic"); err != nil {
		t.Fatal(err)
	}
	v.ensureLayout()
	ln := v.laid(0)
	if len(ln.segs) != 5 {
		t.Fatalf("segments = %d, want 5 (%+v)", len(ln.segs), ln.segs)
	}
	wantBounds := [][2]int{{0, 6}, {6, 10}, {10, 11}, {11, 17}, {17, 21}}
	for i, s := range ln.segs {
		if s.start != wantBounds[i][0] || s.end != wantBounds[i][1] {
			t.Fatalf("seg %d = [%d,%d), want %v", i, s.start, s.end, wantBounds[i])
		}
		if s.font == nil {
			t.Fatalf("seg %d has no font", i)
		}
		if i > 0 {
			prev := ln.segs[i-1]
			if s.start != prev.end {
				t.Fatalf("segs not contiguous at %d", i)
			}
			if s.font == prev.font {
				t.Fatalf("adjacent segs %d,%d share a font — should have merged", i-1, i)
			}
			if s.x < prev.x {
				t.Fatalf("seg %d x went backwards", i)
			}
		}
	}
	// The styled fonts must actually differ from the body font.
	if ln.segs[1].font == ln.segs[0].font || ln.segs[3].font == ln.segs[0].font {
		t.Fatal("styled segments use the body font")
	}
}

// TestRepairMatchesFullRelayout is the pixel-safety property for the
// incremental repair paths (repairLine and resyncRepair): after any
// sequence of scattered edits, the repaired line table must be
// indistinguishable from a from-scratch layout of the same buffer. It
// runs on a short document and on one whose line table spans well over
// 8 chunks of the chunked sequence that holds it (64 lines a chunk), so
// that repairs also split, join and empty chunks.
func TestRepairMatchesFullRelayout(t *testing.T) {
	for _, nWords := range []int{120, 3000} {
		t.Run(fmt.Sprint(nWords, "words"), func(t *testing.T) {
			var sb strings.Builder
			words := []string{"alpha ", "beta ", "gamma delta ", "ep\nsilon ", "zeta "}
			for i := 0; i < nWords; i++ {
				sb.WriteString(words[i%len(words)])
				if i%7 == 0 {
					sb.WriteByte('\n')
				}
			}
			v, d := newView(t, sb.String(), 150, 80) // narrow: plenty of wrapping
			// ref sees the same edits but always rebuilds from scratch.
			ref := New(testReg(t))
			ref.SetDataObject(d)
			ref.SetBounds(graphics.XYWH(0, 0, 150, 80))
			ref.SetIncremental(false)
			v.Lines() // prime the incremental view's layout
			if nWords > 120 && v.lines.Len() < 8*64 {
				t.Fatalf("document lays out %d lines, under 8 chunks", v.lines.Len())
			}

			rnd := rand.New(rand.NewSource(42))
			for i := 0; i < 400; i++ {
				pos := rnd.Intn(d.Len() + 1)
				switch rnd.Intn(4) {
				case 0:
					_ = d.Insert(pos, words[rnd.Intn(len(words))])
				case 1:
					_ = d.Insert(pos, "\n")
				case 2:
					if d.Len() > 0 {
						n := rnd.Intn(6) + 1
						if pos >= d.Len() {
							pos = d.Len() - 1
						}
						if pos+n > d.Len() {
							n = d.Len() - pos
						}
						_ = d.Delete(pos, n)
					}
				case 3:
					if rnd.Intn(2) == 0 {
						d.Undo()
					} else {
						d.Redo()
					}
				}
				v.ensureLayout()
				ref.ensureLayout()
				if !linesEqual(v.lines, ref.lines) {
					t.Fatalf("edit %d: repaired table diverged from full relayout\nincremental: %d lines\nfresh: %d lines", i, v.lines.Len(), ref.lines.Len())
				}
			}
		})
	}
}

// TestViewportLazyLeavesTailUnlaid: painting a huge document must not lay
// it all out; Lines() must still materialize the whole thing on demand.
func TestViewportLazyLeavesTailUnlaid(t *testing.T) {
	content := strings.Repeat("line of text\n", 10000)
	v, _ := newView(t, content, 300, 60)
	v.LayoutViewport()
	if v.LayoutComplete() {
		t.Fatal("viewport layout materialized the whole document")
	}
	if v.lines.Len() > 200 {
		t.Fatalf("viewport layout laid %d lines for a 60px window", v.lines.Len())
	}
	if n := v.Lines(); n != 10001 {
		t.Fatalf("Lines() = %d, want 10001", n)
	}
	if !v.LayoutComplete() {
		t.Fatal("Lines() left the layout incomplete")
	}
}

// TestEditPastFrontierKeepsPrefix: an edit beyond the laid-out prefix
// must neither discard the prefix nor extend it.
func TestEditPastFrontierKeepsPrefix(t *testing.T) {
	content := strings.Repeat("0123456789\n", 1000)
	v, d := newView(t, content, 300, 60)
	v.LayoutViewport()
	laid := v.lines.Len()
	if v.LayoutComplete() {
		t.Skip("document too small to stay lazy")
	}
	if err := d.Insert(d.Len()-2, "XYZ"); err != nil {
		t.Fatal(err)
	}
	if v.dirty {
		t.Fatal("edit past the frontier invalidated the prefix")
	}
	if v.lines.Len() != laid {
		t.Fatalf("prefix changed size: %d -> %d", laid, v.lines.Len())
	}
	// And the final full layout still agrees with a fresh one.
	ref := New(testReg(t))
	ref.SetDataObject(d)
	ref.SetBounds(graphics.XYWH(0, 0, 300, 60))
	v.ensureLayout()
	ref.ensureLayout()
	if !linesEqual(v.lines, ref.lines) {
		t.Fatal("lazy-extended table diverged from fresh layout")
	}
}

// TestRepairAcrossWrapBoundary: inserts that re-wrap across several
// display lines go through resyncRepair; the result must match a fresh
// layout without a full-document relayout being scheduled.
func TestRepairAcrossWrapBoundary(t *testing.T) {
	para := strings.Repeat("wrap me around please ", 30) + "\n"
	v, d := newView(t, para+para+para, 140, 200)
	v.Lines()
	if err := d.Insert(5, "considerably-longer-word "); err != nil {
		t.Fatal(err)
	}
	if v.dirty {
		t.Fatal("multi-line re-wrap fell back to a full relayout")
	}
	ref := New(testReg(t))
	ref.SetDataObject(d)
	ref.SetBounds(graphics.XYWH(0, 0, 140, 200))
	v.ensureLayout()
	ref.ensureLayout()
	if !linesEqual(v.lines, ref.lines) {
		t.Fatal("resync repair diverged from fresh layout")
	}
}

// TestPasteKeepsLayoutComplete: a paste of many lines into a fully laid
// out document is relaid up to where the layout resynchronizes, however
// many lines that is, so the table stays complete and equal to a fresh
// layout (no lazy re-layout of the rest is left for the scroll bar).
func TestPasteKeepsLayoutComplete(t *testing.T) {
	v, d := newView(t, strings.Repeat("a line of the document\n", 10000), 300, 200)
	v.Lines()
	paste := strings.Repeat("a pasted line\n", 1000)
	if err := d.Insert(d.LineStart(d.Len()/2), paste); err != nil {
		t.Fatal(err)
	}
	if !v.LayoutComplete() {
		t.Fatal("the paste left the layout incomplete")
	}
	ref := New(testReg(t))
	ref.SetDataObject(d)
	ref.SetBounds(graphics.XYWH(0, 0, 300, 200))
	ref.ensureLayout()
	if !linesEqual(v.lines, ref.lines) {
		t.Fatal("table after the paste differs from a fresh layout")
	}
}

// TestKeystrokeAllocsIndependentOfSize: typing a letter or a Return in
// the middle of a laid-out 200,000-line document allocates a few
// kilobytes, not a copy of anything the size of the document.
func TestKeystrokeAllocsIndependentOfSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200,000-line layout")
	}
	var sb strings.Builder
	for i := 0; i < 200000; i++ {
		fmt.Fprintf(&sb, "line %d of a long document\n", i)
	}
	v, d := newView(t, sb.String(), 560, 360)
	v.ScrollTo(v.Lines() / 2)
	v.SetDot(d.LineEnd(d.LineStart(d.Len() / 2)))
	for _, k := range []struct {
		name string
		ev   wsys.Event
	}{{"letter", wsys.KeyPress('a')}, {"Return", wsys.KeyDownEvent(wsys.KeyReturn)}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v.Key(k.ev)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
			t.Errorf("typing a %s allocated %d bytes, want under 16 KB", k.name, got)
		}
	}
	if !v.LayoutComplete() {
		t.Fatal("typing left the layout incomplete")
	}
}
