package graphics

import (
	"errors"
	"testing"
)

// recGraphic records calls so Drawable's forwarding and coordinate
// translation can be asserted without a backend.
type recGraphic struct {
	bounds Rect
	clip   Rect
	calls  []string
	lastA  Point
	lastB  Point
	lastR  Rect
	flushE error
}

func newRec(w, h int) *recGraphic { return &recGraphic{bounds: XYWH(0, 0, w, h)} }

func (g *recGraphic) rec(s string)   { g.calls = append(g.calls, s) }
func (g *recGraphic) Bounds() Rect   { return g.bounds }
func (g *recGraphic) SetClip(r Rect) { g.clip = r }
func (g *recGraphic) Clear(r Rect)   { g.rec("clear"); g.lastR = r }
func (g *recGraphic) FillRect(r Rect, v Pixel) {
	g.rec("fill")
	g.lastR = r
}
func (g *recGraphic) DrawLine(a, b Point, w int, v Pixel) {
	g.rec("line")
	g.lastA, g.lastB = a, b
}
func (g *recGraphic) DrawRect(r Rect, w int, v Pixel) { g.rec("rect"); g.lastR = r }
func (g *recGraphic) DrawOval(r Rect, w int, v Pixel) { g.rec("oval"); g.lastR = r }
func (g *recGraphic) FillOval(r Rect, v Pixel)        { g.rec("foval"); g.lastR = r }
func (g *recGraphic) DrawArc(r Rect, s, w, lw int, v Pixel) {
	g.rec("arc")
	g.lastR = r
}
func (g *recGraphic) FillArc(r Rect, s, w int, v Pixel) { g.rec("farc"); g.lastR = r }
func (g *recGraphic) DrawPolyline(pts []Point, w int, v Pixel, c bool) {
	g.rec("poly")
	if len(pts) > 0 {
		g.lastA = pts[0]
	}
}
func (g *recGraphic) FillPolygon(pts []Point, v Pixel) { g.rec("fpoly") }
func (g *recGraphic) DrawString(p Point, s string, f *Font, v Pixel) {
	g.rec("str:" + s)
	g.lastA = p
}
func (g *recGraphic) DrawBitmap(d Point, bm *Bitmap) { g.rec("bitmap"); g.lastA = d }
func (g *recGraphic) CopyArea(src Rect, d Point)     { g.rec("copy"); g.lastR = src }
func (g *recGraphic) InvertArea(r Rect)              { g.rec("invert"); g.lastR = r }
func (g *recGraphic) Flush() error                   { g.rec("flush"); return g.flushE }
func (g *recGraphic) FlushRegion(reg Region) error   { g.rec("flushregion"); return g.flushE }

func TestDrawableTranslatesCoordinates(t *testing.T) {
	g := newRec(200, 100)
	d := NewDrawable(g)
	sub := d.Sub(XYWH(50, 20, 100, 60))
	sub.DrawLine(Pt(0, 0), Pt(10, 10))
	if g.lastA != Pt(50, 20) || g.lastB != Pt(60, 30) {
		t.Fatalf("line at %v-%v", g.lastA, g.lastB)
	}
	sub.FillRect(XYWH(1, 2, 3, 4))
	if g.lastR != XYWH(51, 22, 3, 4) {
		t.Fatalf("rect at %v", g.lastR)
	}
	if sub.Origin() != Pt(50, 20) {
		t.Fatalf("origin = %v", sub.Origin())
	}
}

func TestSubClipsNested(t *testing.T) {
	g := newRec(200, 100)
	d := NewDrawable(g)
	a := d.Sub(XYWH(50, 20, 100, 60))
	b := a.Sub(XYWH(80, 40, 100, 100)) // extends past a: clipped
	b.FillRect(XYWH(0, 0, 10, 10))
	// b's device clip must be inside a's rect.
	if !XYWH(50, 20, 100, 60).Contains(g.clip) {
		t.Fatalf("clip %v escapes parent", g.clip)
	}
	if b.Clip().Empty() {
		t.Fatal("nested clip empty")
	}
	// Fully disjoint sub yields an empty clip.
	c := a.Sub(XYWH(500, 500, 10, 10))
	if !c.Clip().Empty() {
		t.Fatalf("disjoint clip = %v", c.Clip())
	}
}

func TestSetClipLocalRestore(t *testing.T) {
	g := newRec(100, 100)
	d := NewDrawable(g)
	old := d.SetClipLocal(XYWH(10, 10, 20, 20))
	if d.Clip() != XYWH(10, 10, 20, 20) {
		t.Fatalf("clip = %v", d.Clip())
	}
	if d.LocalClip() != XYWH(10, 10, 20, 20) {
		t.Fatalf("local clip = %v", d.LocalClip())
	}
	d.RestoreClip(old)
	if d.Clip() != XYWH(0, 0, 100, 100) {
		t.Fatalf("restored clip = %v", d.Clip())
	}
}

func TestPenOps(t *testing.T) {
	g := newRec(100, 100)
	d := NewDrawable(g)
	d.MoveTo(Pt(10, 10))
	d.LineTo(Pt(20, 10))
	if d.Pen() != Pt(20, 10) {
		t.Fatalf("pen = %v", d.Pen())
	}
	d.RLineTo(0, 5)
	if g.lastB != Pt(20, 15) {
		t.Fatalf("rlineto end = %v", g.lastB)
	}
	d.RMoveTo(5, 0)
	if d.Pen() != Pt(25, 15) {
		t.Fatalf("pen after rmove = %v", d.Pen())
	}
	// DrawString advances the pen by the string width.
	d.SetFontDesc(DefaultFont)
	d.MoveTo(Pt(0, 50))
	d.DrawString(Pt(0, 50), "ab")
	if d.Pen().X != d.Font().TextWidth("ab") {
		t.Fatalf("pen after string = %v", d.Pen())
	}
}

func TestGraphicsState(t *testing.T) {
	g := newRec(100, 100)
	d := NewDrawable(g)
	d.SetValue(Gray)
	if d.Value() != Gray {
		t.Fatal("value")
	}
	d.SetLineWidth(3)
	if d.LineWidth() != 3 {
		t.Fatal("width")
	}
	d.SetLineWidth(0) // clamped
	if d.LineWidth() != 1 {
		t.Fatal("width clamp")
	}
	d.SetFont(nil) // ignored
	if d.Font() == nil {
		t.Fatal("nil font accepted")
	}
	d.SetFontDesc(FontDesc{Family: "andy", Size: 9})
	if d.Font().Desc.Size != 9 {
		t.Fatal("font desc")
	}
	if d.FontHeight() != d.Font().Height() {
		t.Fatal("font height")
	}
	if d.TextWidth("x") != d.Font().TextWidth("x") {
		t.Fatal("text width")
	}
}

func TestAlignmentHelpers(t *testing.T) {
	g := newRec(200, 100)
	d := NewDrawable(g)
	d.SetFontDesc(DefaultFont)
	w := d.TextWidth("hello")
	d.DrawStringAligned(Pt(100, 50), "hello", AlignCenter)
	if g.lastA.X != 100-w/2 {
		t.Fatalf("centered at %d", g.lastA.X)
	}
	d.DrawStringAligned(Pt(100, 50), "hello", AlignRight)
	if g.lastA.X != 100-w {
		t.Fatalf("right at %d", g.lastA.X)
	}
	d.DrawStringInBox(XYWH(0, 0, 200, 40), "hello")
	if g.lastA.X != 100-w/2 {
		t.Fatalf("boxed at %d", g.lastA.X)
	}
	if g.lastA.Y <= 0 || g.lastA.Y >= 40 {
		t.Fatalf("baseline at %d", g.lastA.Y)
	}
}

func TestRoundRectFallsBackAndDraws(t *testing.T) {
	g := newRec(100, 100)
	d := NewDrawable(g)
	d.RoundRect(XYWH(0, 0, 50, 30), 0) // radius 0: plain rect
	if g.calls[len(g.calls)-1] != "rect" {
		t.Fatalf("calls = %v", g.calls)
	}
	n := len(g.calls)
	d.RoundRect(XYWH(0, 0, 50, 30), 6) // 4 lines + 4 arcs
	lines, arcs := 0, 0
	for _, c := range g.calls[n:] {
		switch c {
		case "line":
			lines++
		case "arc":
			arcs++
		}
	}
	if lines != 4 || arcs != 4 {
		t.Fatalf("lines=%d arcs=%d", lines, arcs)
	}
	// Oversized radius is clamped, not panicking.
	d.RoundRect(XYWH(0, 0, 10, 10), 50)
}

func TestRetargetKeepsOriginResetsClip(t *testing.T) {
	g1 := newRec(100, 100)
	d := NewDrawable(g1)
	sub := d.Sub(XYWH(10, 10, 50, 50))
	g2 := newRec(300, 300)
	sub.Retarget(g2)
	if sub.Graphic() != Graphic(g2) {
		t.Fatal("retarget failed")
	}
	if sub.Clip() != XYWH(0, 0, 300, 300) {
		t.Fatalf("clip = %v", sub.Clip())
	}
	sub.DrawLine(Pt(0, 0), Pt(5, 5))
	if g2.lastA != Pt(10, 10) { // origin preserved
		t.Fatalf("line at %v", g2.lastA)
	}
	if len(g1.calls) != 0 {
		t.Fatal("old device touched after retarget")
	}
}

func TestFlushPropagatesError(t *testing.T) {
	g := newRec(10, 10)
	g.flushE = errors.New("device gone")
	d := NewDrawable(g)
	if err := d.Flush(); err == nil {
		t.Fatal("flush error swallowed")
	}
}

func TestForwardingCoverage(t *testing.T) {
	g := newRec(100, 100)
	d := NewDrawable(g)
	d.ClearRect(XYWH(0, 0, 5, 5))
	d.FillRectValue(XYWH(0, 0, 5, 5), Gray)
	d.DrawRect(XYWH(0, 0, 5, 5))
	d.DrawOval(XYWH(0, 0, 5, 5))
	d.FillOval(XYWH(0, 0, 5, 5))
	d.DrawArc(XYWH(0, 0, 5, 5), 0, 90)
	d.FillArc(XYWH(0, 0, 5, 5), 0, 90)
	d.DrawPolyline([]Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, false)
	d.FillPolygon([]Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}})
	d.DrawBitmap(Pt(0, 0), NewBitmap(2, 2))
	d.CopyArea(XYWH(0, 0, 2, 2), Pt(5, 5))
	d.InvertArea(XYWH(0, 0, 2, 2))
	want := []string{"clear", "fill", "rect", "oval", "foval", "arc", "farc",
		"poly", "fpoly", "bitmap", "copy", "invert"}
	if len(g.calls) != len(want) {
		t.Fatalf("calls = %v", g.calls)
	}
	for i, w := range want {
		if g.calls[i] != w {
			t.Fatalf("call %d = %q, want %q", i, g.calls[i], w)
		}
	}
}

func TestTouchesClipAndRegion(t *testing.T) {
	d := NewDrawable(newRec(100, 100)).Sub(XYWH(10, 10, 50, 50))
	if !d.Touches(XYWH(0, 0, 5, 5)) {
		t.Fatal("rect inside the clip reported untouched")
	}
	if d.Touches(XYWH(50, 0, 5, 5)) || d.Touches(XYWH(-10, -10, 10, 10)) {
		t.Fatal("rect outside the clip reported touched")
	}
	d.SetRegion(RectRegion(XYWH(10, 30, 50, 4)).UnionRect(XYWH(40, 50, 5, 5)))
	for _, c := range []struct {
		r    Rect
		want bool
	}{
		{XYWH(0, 0, 50, 20), false},  // above both region rects
		{XYWH(0, 18, 50, 3), true},   // meets the strip at device rows 30-33
		{XYWH(0, 24, 50, 10), false}, // between them
		{XYWH(0, 24, 50, 20), true},  // reaches the square at device 40,50
		{XYWH(0, 40, 29, 5), false},  // beside the square
		{XYWH(0, 0, 50, 50), true},
		{Rect{}, false},
	} {
		if got := d.Touches(c.r); got != c.want {
			t.Errorf("Touches(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}
