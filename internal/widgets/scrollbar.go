// Package widgets supplies the "usual set of simple components" of the
// toolkit (paper §1): scroll bars, frames with message lines and an
// adjustable divider, buttons, labels and borders. Each is a view built on
// the core view protocol, so they compose with every other component.
package widgets

import (
	"atk/internal/core"
	"atk/internal/graphics"
	"atk/internal/wsys"
)

// Scrollee is what a scroll bar adjusts: any view exposing a scrollable
// extent. The scroll bar itself has no data object — it is the paper's
// example of a view that "solely provides a user interface function".
type Scrollee interface {
	core.View
	// ScrollInfo returns the total extent, the offset of the first visible
	// unit, and the number of visible units (all in the scrollee's own
	// units: lines, pixels, rows...).
	ScrollInfo() (total, top, visible int)
	// ScrollTo makes the given offset the first visible unit.
	ScrollTo(top int)
}

// ScrollBarWidth is the bar's fixed width in pixels, matching the thin
// vertical bars on the left edge of Andrew windows.
const ScrollBarWidth = 16

// ScrollBar is a vertical scroll bar controlling a Scrollee.
type ScrollBar struct {
	core.BaseView
	target   Scrollee
	dragging bool
	// dragOff is the pointer offset within the thumb during a drag.
	dragOff int
	// drawn is the target's ScrollInfo when the bar last drew its thumb.
	drawn [3]int
}

// NewScrollBar returns a scroll bar controlling target.
func NewScrollBar(target Scrollee) *ScrollBar {
	sb := &ScrollBar{target: target}
	sb.InitView(sb, "scroll")
	return sb
}

// DesiredSize implements core.View: fixed width, any height.
func (sb *ScrollBar) DesiredSize(wHint, hHint int) (int, int) {
	return ScrollBarWidth, hHint
}

// scrollInfo returns the target's ScrollInfo as one value.
func (sb *ScrollBar) scrollInfo() [3]int {
	total, top, visible := sb.target.ScrollInfo()
	return [3]int{total, top, visible}
}

// thumb computes the elevator rectangle for the current scroll state.
func (sb *ScrollBar) thumb() graphics.Rect { return sb.thumbFor(sb.scrollInfo()) }

// thumbFor computes the elevator rectangle for scroll state s.
func (sb *ScrollBar) thumbFor(s [3]int) graphics.Rect {
	h := sb.Bounds().Dy()
	total, top, visible := s[0], s[1], s[2]
	if total <= 0 || total <= visible {
		return graphics.XYWH(1, 0, ScrollBarWidth-2, h)
	}
	y0 := top * h / total
	y1 := (top + visible) * h / total
	if y1-y0 < 6 {
		y1 = y0 + 6
	}
	if y1 > h {
		y0, y1 = h-(y1-y0), h
	}
	return graphics.XYWH(1, y0, ScrollBarWidth-2, y1-y0)
}

// FullUpdate implements core.View.
func (sb *ScrollBar) FullUpdate(d *graphics.Drawable) {
	r := graphics.XYWH(0, 0, sb.Bounds().Dx(), sb.Bounds().Dy())
	d.ClearRect(r)
	d.SetValue(graphics.Gray)
	d.FillRect(graphics.XYWH(ScrollBarWidth/2-1, 0, 2, r.Dy()))
	d.SetValue(graphics.Black)
	sb.drawn = sb.scrollInfo()
	th := sb.thumbFor(sb.drawn)
	d.DrawRect(th)
	d.SetValue(graphics.Gray)
	d.FillRect(th.Inset(1))
}

// Hit implements core.View: drag the thumb to scroll; click above/below it
// to page.
func (sb *ScrollBar) Hit(a wsys.MouseAction, p graphics.Point, clicks int) core.View {
	if p.X < 0 || p.X >= ScrollBarWidth {
		if !sb.dragging {
			return nil
		}
	}
	s := sb.scrollInfo()
	total, top, visible := s[0], s[1], s[2]
	h := sb.Bounds().Dy()
	if h <= 0 {
		return sb.Self()
	}
	th := sb.thumbFor(s)
	switch a {
	case wsys.MouseDown:
		switch {
		case p.Y < th.Min.Y: // page up
			sb.scrollTo(top - visible + 1)
		case p.Y >= th.Max.Y: // page down
			sb.scrollTo(top + visible - 1)
		default:
			sb.dragging = true
			sb.dragOff = p.Y - th.Min.Y
		}
	case wsys.MouseMove:
		if sb.dragging && total > 0 {
			sb.scrollTo((p.Y - sb.dragOff) * total / h)
		}
	case wsys.MouseUp:
		sb.dragging = false
	}
	sb.PostCursor(wsys.CursorArrow)
	return sb.Self()
}

func (sb *ScrollBar) scrollTo(top int) {
	total, _, visible := sb.target.ScrollInfo()
	if top > total-visible {
		top = total - visible
	}
	if top < 0 {
		top = 0
	}
	sb.target.ScrollTo(top)
	sb.WantUpdate(sb.Self())
	sb.WantUpdate(sb.target)
}

// ScrollView pairs a scroll bar (on the left, Andrew style) with a body.
type ScrollView struct {
	core.BaseView
	bar  *ScrollBar
	body Scrollee
	// check marks a whole-view update request from the body's subtree
	// since the last flush (see PrepareUpdate).
	check bool
}

// NewScrollView wraps body with a scroll bar.
func NewScrollView(body Scrollee) *ScrollView {
	sv := &ScrollView{bar: NewScrollBar(body), body: body}
	sv.InitView(sv, "scrollview")
	sv.bar.SetParent(sv)
	body.SetParent(sv)
	return sv
}

// Body returns the scrolled view.
func (sv *ScrollView) Body() Scrollee { return sv.body }

// Bar returns the scroll bar.
func (sv *ScrollView) Bar() *ScrollBar { return sv.bar }

// SetBounds implements core.View and lays out bar and body.
func (sv *ScrollView) SetBounds(r graphics.Rect) {
	sv.BaseView.SetBounds(r)
	w, h := r.Dx(), r.Dy()
	sv.bar.SetBounds(graphics.XYWH(0, 0, ScrollBarWidth, h))
	sv.body.SetBounds(graphics.XYWH(ScrollBarWidth, 0, w-ScrollBarWidth, h))
}

// DesiredSize implements core.View.
func (sv *ScrollView) DesiredSize(wHint, hHint int) (int, int) {
	bw, bh := sv.body.DesiredSize(wHint-ScrollBarWidth, hHint)
	return bw + ScrollBarWidth, bh
}

// FullUpdate implements core.View.
func (sv *ScrollView) FullUpdate(d *graphics.Drawable) {
	sv.bar.FullUpdate(d.Sub(sv.bar.Bounds()))
	sv.body.FullUpdate(d.Sub(sv.body.Bounds()))
}

// WantUpdate implements core.View. A whole-view request from anywhere in
// the body's subtree — the body, or a text view a wrapper like the
// typescript view composes — may come with a new scroll state (content
// grew or shrank, or it scrolled), which moves the bar's thumb: a
// sibling whose geometry is derived from the body's ScrollInfo at draw
// time. The check waits for the flush (PrepareUpdate). Region damage is
// exempt: the incremental line-repair path preserves line count, heights
// and scroll position, so the thumb cannot move.
func (sv *ScrollView) WantUpdate(v core.View) {
	if v != core.View(sv.bar) {
		sv.check = true
	}
	sv.BaseView.WantUpdate(v)
}

// PrepareUpdate implements core.Preparer: before the flush paints, the
// bar is damaged if the body's ScrollInfo differs from what the bar last
// drew. ScrollInfo lays out only the viewport, which the flush is about
// to lay out and paint anyway, and the check runs once per flush however
// many requests came before it.
func (sv *ScrollView) PrepareUpdate() {
	if !sv.check {
		return
	}
	sv.check = false
	if sv.bar.scrollInfo() != sv.bar.drawn {
		sv.BaseView.WantUpdate(sv.bar)
	}
}

// Hit implements core.View: the bar is offered the event when it lands on
// it; everything else goes to the body.
func (sv *ScrollView) Hit(a wsys.MouseAction, p graphics.Point, clicks int) core.View {
	if p.In(sv.bar.Bounds()) {
		if v := sv.bar.Hit(a, p.Sub(sv.bar.Bounds().Min), clicks); v != nil {
			return v
		}
	}
	if p.In(sv.body.Bounds()) {
		return sv.body.Hit(a, p.Sub(sv.body.Bounds().Min), clicks)
	}
	return nil
}

// Key implements core.View by delegating to the body.
func (sv *ScrollView) Key(ev wsys.Event) bool { return sv.body.Key(ev) }

// PostMenus implements core.View: the scroll pair is transparent to menu
// negotiation.
func (sv *ScrollView) PostMenus(ms *core.MenuSet) { sv.BaseView.PostMenus(ms) }

// Tick forwards clock ticks to the scrolled body.
func (sv *ScrollView) Tick(t int64) {
	if ticker, ok := sv.body.(interface{ Tick(int64) }); ok {
		ticker.Tick(t)
	}
}
