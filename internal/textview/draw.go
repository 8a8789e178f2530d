package textview

import (
	"atk/internal/graphics"
	"atk/internal/text"
)

// FullUpdate implements core.View: paints the visible lines, embedded
// children, selection highlight and caret. Painting only ever needs the
// viewport laid out, so this is the lazy path — cost proportional to the
// window, not the document.
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
	y := 2
	for it := v.lines.At(v.topLine); it.Ok() && y < h; it.Next() {
		ln := placedAt(it)
		base := y + ln.ascent
		for _, seg := range ln.segs {
			if seg.child != nil {
				r := graphics.XYWH(seg.x, y, seg.w, ln.h)
				v.rects[seg.child] = r
				if cv := v.childView(seg.child); cv != nil {
					cv.SetBounds(r)
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
			if seg.font == nil {
				continue
			}
			d.SetFont(seg.font)
			d.SetValue(graphics.Black)
			d.DrawString(graphics.Pt(seg.x, base), td.Slice(ln.start+seg.start, ln.start+seg.end))
		}
		// Selection highlight for the overlap with this line.
		if selStart < selEnd && selEnd > ln.start && selStart < ln.nlEnd {
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
// caret is scrolled out of view.
func (v *View) caretGeometry() (x, y, h int, ok bool) {
	li := v.lineOf(v.dot)
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

// ChildRect returns the on-screen rectangle of an embedded component, if
// currently visible (test and tooling introspection).
func (v *View) ChildRect(e *text.Embedded) (graphics.Rect, bool) {
	r, ok := v.rects[e]
	return r, ok
}
