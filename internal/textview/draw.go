package textview

import (
	"atk/internal/core"
	"atk/internal/graphics"
	"atk/internal/text"
)

// FullUpdate implements core.View: paints the visible lines, embedded
// children, selection highlight and caret. Painting only ever needs the
// viewport laid out, so this is the lazy path — cost proportional to the
// window, not the document. A line's glyphs, children and highlight lie
// within its strip of rows, so a line whose strip the drawable's clip and
// damage region miss draws nothing; its children are still placed.
func (v *View) FullUpdate(d *graphics.Drawable) {
	v.ensureViewport()
	w, h := v.Bounds().Dx(), v.Bounds().Dy()
	d.ClearRect(graphics.XYWH(0, 0, w, h))
	for k := range v.rects {
		delete(v.rects, k)
	}
	td := v.Text()
	if td == nil {
		return
	}
	selStart, selEnd := v.Selection()
	lc := d.LocalClip()
	y := 2
	for it := v.lines.At(v.topLine); it.Ok() && y < h; it.Next() {
		ln := placedAt(it)
		base := y + ln.ascent
		damaged := d.Touches(graphics.R(lc.Min.X, y, lc.Max.X, y+ln.h))
		for _, seg := range ln.segs {
			if seg.child != nil {
				r := graphics.XYWH(seg.x, y, seg.w, ln.h)
				v.rects[seg.child] = r
				cv := v.childView(seg.child)
				if cv != nil {
					cv.SetBounds(r)
				}
				if !damaged {
					continue
				}
				if cv != nil {
					cv.FullUpdate(d.Sub(r))
					cv.DrawOverlay(d.Sub(r))
				} else {
					// Placeholder for a component with no loadable view.
					d.SetValue(graphics.Gray)
					d.DrawRect(r)
					d.DrawLine(r.Min, r.Max.Sub(graphics.Pt(1, 1)))
				}
				d.SetValue(graphics.Black)
				continue
			}
			if seg.font == nil || !damaged {
				continue
			}
			d.SetFont(seg.font)
			d.SetValue(graphics.Black)
			d.DrawString(graphics.Pt(seg.x, base), td.Slice(ln.start+seg.start, ln.start+seg.end))
		}
		// Selection highlight for the overlap with this line.
		if damaged && selStart < selEnd && selEnd > ln.start && selStart < ln.nlEnd {
			x0 := v.posToX(ln, max(selStart, ln.start))
			x1 := v.posToX(ln, min(selEnd, ln.end))
			if selEnd > ln.end { // selection crosses the newline
				x1 = max(x1, x0+4)
			}
			if x1 > x0 {
				d.InvertArea(graphics.XYWH(x0, y, x1-x0, ln.h))
			}
		}
		y += ln.h
	}
	// A child scrolled out of view keeps no bounds, so an update it posts
	// while hidden cannot paint over the lines now in its old place.
	for e, cv := range v.children {
		if _, shown := v.rects[e]; !shown && cv != nil && !cv.Bounds().Empty() {
			cv.SetBounds(graphics.Rect{})
		}
	}
	// Caret.
	if selStart == selEnd {
		if x, cy, ch, ok := v.caretGeometry(); ok {
			d.SetValue(graphics.Black)
			d.DrawLine(graphics.Pt(x, cy), graphics.Pt(x, cy+ch-1))
		}
	}
}

// posToX returns the x coordinate of pos within line ln.
func (v *View) posToX(ln placed, pos int) int {
	td := v.Text()
	rel := pos - ln.start
	for _, seg := range ln.segs {
		if rel < seg.start {
			continue
		}
		if seg.child != nil {
			if rel == seg.start {
				return seg.x
			}
			if rel == seg.end {
				return seg.x + seg.w
			}
			continue
		}
		if rel <= seg.end {
			return seg.x + seg.font.TextWidth(td.Slice(ln.start+seg.start, pos))
		}
	}
	// Past the last segment.
	if n := len(ln.segs); n > 0 {
		last := ln.segs[n-1]
		if last.child != nil {
			return last.x + last.w
		}
		return last.x + last.font.TextWidth(td.Slice(ln.start+last.start, ln.start+last.end))
	}
	return ln.indent
}

// caretGeometry returns the caret's x, top y, height — ok=false when the
// caret is scrolled out of view. It reads the laid prefix only: painting
// never extends the layout past ensureViewport, and a caret beyond the
// prefix lies below the viewport.
func (v *View) caretGeometry() (x, y, h int, ok bool) {
	li := v.findLine(v.dot)
	if li >= v.lines.Len() {
		return 0, 0, 0, false
	}
	y, ok = v.lineTop(li)
	if !ok {
		return 0, 0, 0, false
	}
	ln := v.laid(li)
	return v.posToX(ln, v.dot), y, ln.h, true
}

// posAt maps a local point to the nearest buffer position.
func (v *View) posAt(p graphics.Point) int {
	v.ensureViewport()
	if v.lines.Len() == 0 {
		return 0
	}
	y := 2
	li := -1
	for it := v.lines.At(v.topLine); it.Ok(); it.Next() {
		h := it.Val().h
		if p.Y < y+h {
			li = it.Index()
			break
		}
		y += h
	}
	if li < 0 {
		// Below everything laid out: clicks past the end land on the last
		// line of the document, which needs the full layout.
		if !v.complete {
			v.ensureLayout()
		}
		li = v.lines.Len() - 1
	}
	ln := v.laid(li)
	td := v.Text()
	// Walk the segments accumulating advance until we pass p.X.
	for _, seg := range ln.segs {
		if seg.child != nil {
			if p.X < seg.x+seg.w/2 {
				return ln.start + seg.start
			}
			if p.X < seg.x+seg.w {
				return ln.start + seg.end
			}
			continue
		}
		x := seg.x
		c := td.Cursor(ln.start + seg.start)
		for pos := ln.start + seg.start; pos < ln.start+seg.end; pos++ {
			r, ok := c.Next()
			if !ok {
				return pos
			}
			rw := seg.font.RuneWidth(r)
			if p.X < x+rw/2 {
				return pos
			}
			x += rw
		}
	}
	return ln.end
}

// WantUpdate implements core.View. The text view inverts the selection
// highlight over the embedded children it covers, so a selected child's
// request to repaint itself becomes a repaint of its rectangle by the
// text view, which draws the child and then the highlight.
func (v *View) WantUpdate(cv core.View) {
	if r, ok := v.selectedChildRect(cv); ok {
		v.BaseView.WantUpdateRegion(v.Self(), graphics.RectRegion(r))
		return
	}
	v.BaseView.WantUpdate(cv)
}

// WantUpdateRegion implements core.View like WantUpdate.
func (v *View) WantUpdateRegion(cv core.View, reg graphics.Region) {
	if r, ok := v.selectedChildRect(cv); ok {
		v.BaseView.WantUpdateRegion(v.Self(), graphics.RectRegion(r))
		return
	}
	v.BaseView.WantUpdateRegion(cv, reg)
}

// selectedChildRect returns the rectangle of the visible embedded child
// that is cv or holds it, when the selection covers the child's anchor:
// the highlight then covers exactly that rectangle.
func (v *View) selectedChildRect(cv core.View) (graphics.Rect, bool) {
	s, e := v.Selection()
	if s == e {
		return graphics.Rect{}, false
	}
	for cv != nil && cv.Parent() != v.Self() {
		cv = cv.Parent()
	}
	if cv == nil {
		return graphics.Rect{}, false
	}
	for emb, child := range v.children {
		if child == cv && emb.Pos >= s && emb.Pos < e {
			r, shown := v.rects[emb]
			return r, shown
		}
	}
	return graphics.Rect{}, false
}

// ChildRect returns the on-screen rectangle of an embedded component, if
// currently visible (test and tooling introspection).
func (v *View) ChildRect(e *text.Embedded) (graphics.Rect, bool) {
	r, ok := v.rects[e]
	return r, ok
}
