package textview

import (
	"fmt"
	"strings"
	"testing"

	"atk/internal/core"
	"atk/internal/widgets"
	"atk/internal/wsys/memwin"
)

// numberedLines returns n newline-terminated lines "line i: " + pad.
func numberedLines(n int, pad string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "line %d: %s\n", i, pad)
	}
	return b.String()
}

// matchesFullRedraw reports whether the window's incrementally flushed
// bitmap equals a full redraw of it.
func matchesFullRedraw(im *core.InteractionManager, win *memwin.Window) bool {
	im.FlushUpdates()
	inc := win.Snapshot()
	im.FullRedraw()
	return inc.Equal(win.Snapshot())
}

// TestOneLineDamageDrawsOneLine: a keystroke damages one line's strip,
// and the flush draws that line's string and no other: one clear, one
// string, and the caret stroke (issued for the view, clipped to nothing).
func TestOneLineDamageDrawsOneLine(t *testing.T) {
	im, win, v, d := newIMWithView(t, numberedLines(40, "some text"), 300, 200)
	if v.lines.Len() < 10 {
		t.Fatalf("only %d lines laid in a 200px window", v.lines.Len())
	}
	g := win.Raster()
	g.ResetCounters()
	if err := d.Insert(len(numberedLines(5, "some text"))+3, "x"); err != nil {
		t.Fatal(err)
	}
	im.FlushUpdates()
	if ops := g.Ops(); ops != 3 {
		t.Fatalf("one-line damage flush issued %d drawing operations, want 3", ops)
	}
	if g.PixelsTouched() == 0 {
		t.Fatal("the damaged line was not repainted")
	}
	if !matchesFullRedraw(im, win) {
		t.Fatal("culled flush differs from a full redraw")
	}
}

// TestScrollInfoLaysOutOnlyTheViewport: the scroll bar's extent of a
// loaded document comes from the newline index, and scrolling lays out
// only through its target.
func TestScrollInfoLaysOutOnlyTheViewport(t *testing.T) {
	v, d := newView(t, numberedLines(10000, "x"), 300, 60)
	total, top, vis := v.ScrollInfo()
	if total != d.LineCount() || top != 0 || vis < 1 {
		t.Fatalf("ScrollInfo = %d, %d, %d; want total %d", total, top, vis, d.LineCount())
	}
	if v.LayoutComplete() || v.lines.Len() > 100 {
		t.Fatalf("ScrollInfo laid %d lines of 10,001", v.lines.Len())
	}
	v.ScrollTo(5000)
	if total, top, _ = v.ScrollInfo(); top != 5000 || total != d.LineCount() {
		t.Fatalf("after ScrollTo(5000): total %d top %d", total, top)
	}
	if v.LayoutComplete() || v.lines.Len() > 5100 {
		t.Fatalf("ScrollTo(5000) laid %d lines", v.lines.Len())
	}
	if n := v.Lines(); n != d.LineCount() {
		t.Fatalf("Lines() = %d, want %d", n, d.LineCount())
	}
	if total, _, _ = v.ScrollInfo(); total != d.LineCount() {
		t.Fatalf("complete layout: total %d, want %d", total, d.LineCount())
	}
}

// TestScrollInfoCountsWrappedRowsAsLaid: each hard line not yet laid
// counts once, however many rows it will wrap to; laid rows count
// exactly, so the total reaches Lines() when the layout completes.
func TestScrollInfoCountsWrappedRowsAsLaid(t *testing.T) {
	v, d := newView(t, numberedLines(200, strings.Repeat("wrap me ", 12)), 200, 40)
	total, _, _ := v.ScrollInfo()
	laid := v.lines.Len()
	if want := laid + d.LineCount() - d.LineOf(v.lines.Total()); total != want || total >= d.LineCount()*2 {
		t.Fatalf("total %d, want %d (laid %d of a %d-line document)", total, want, laid, d.LineCount())
	}
	n := v.Lines()
	if total, _, _ = v.ScrollInfo(); total != n || n < 2*d.LineCount() {
		t.Fatalf("complete layout: total %d, Lines() %d, hard lines %d", total, n, d.LineCount())
	}
}

// TestCaretBelowLaidPrefixIsNotLaidOut: painting never extends the layout
// past the viewport, even to find a caret far below it.
func TestCaretBelowLaidPrefixIsNotLaidOut(t *testing.T) {
	im, win, v, d := newIMWithView(t, numberedLines(5000, "x"), 300, 60)
	laid := v.lines.Len()
	v.SetDot(d.Len() - 3)
	im.FlushUpdates()
	if v.lines.Len() != laid {
		t.Fatalf("painting a caret below the viewport laid %d lines, want %d", v.lines.Len(), laid)
	}
	if !matchesFullRedraw(im, win) {
		t.Fatal("incremental flush differs from a full redraw")
	}
}

// TestLayoutOutsidePaintingRepaintsScrollBar: laying wrapped rows outside
// painting raises the scroll bar's extent, so the view posts a whole-view
// update and the bar's next paint shows it.
func TestLayoutOutsidePaintingRepaintsScrollBar(t *testing.T) {
	ws := memwin.New()
	win, err := ws.NewWindow("wrapped", 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	im := core.NewInteractionManager(ws, win)
	v, _ := newView(t, numberedLines(60, strings.Repeat("wrap me ", 12)), 284, 100)
	im.SetChild(widgets.NewScrollView(v))
	im.FullRedraw()
	before, _, _ := v.ScrollInfo()
	v.Lines()
	if after, _, _ := v.ScrollInfo(); after == before {
		t.Fatalf("laying the wrapped rows left the extent at %d", after)
	}
	if !matchesFullRedraw(im, win.(*memwin.Window)) {
		t.Fatal("the scroll bar kept its stale thumb")
	}
}
