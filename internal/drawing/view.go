package drawing

import (
	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/graphics"
	"atk/internal/wsys"
)

// HitSlop is the selection tolerance in pixels.
const HitSlop = 3

// View is the drawing editor view: it renders the display list, selects
// items by semantic hit testing (topmost wins — the paper's line-over-text
// decision), drags the selection, and routes events landing on embedded
// components to their views.
type View struct {
	core.BaseView
	reg *class.Registry

	selected int // display-list index, -1 none
	dragging bool
	lastDrag graphics.Point

	children map[*Item]core.View
}

// NewView returns an unattached drawing view.
func NewView(reg *class.Registry) *View {
	v := &View{reg: reg, selected: -1, children: make(map[*Item]core.View)}
	v.InitView(v, "drawview")
	return v
}

func (v *View) registry() *class.Registry {
	if v.reg != nil {
		return v.reg
	}
	return class.Default
}

// Drawing returns the attached data object, or nil.
func (v *View) Drawing() *Data {
	d, _ := v.DataObject().(*Data)
	return d
}

// Selected returns the selected display-list index, -1 for none.
func (v *View) Selected() int { return v.selected }

// DesiredSize implements core.View: the drawing's natural extent.
func (v *View) DesiredSize(wHint, hHint int) (int, int) {
	d := v.Drawing()
	if d == nil || len(d.Items()) == 0 {
		return 120, 80
	}
	b := d.Bounds()
	w, h := b.Max.X+4, b.Max.Y+4
	if wHint > 0 && w > wHint {
		w = wHint
	}
	if hHint > 0 && h > hHint {
		h = hHint
	}
	return w, h
}

// FullUpdate implements core.View.
func (v *View) FullUpdate(dr *graphics.Drawable) {
	w, h := v.Bounds().Dx(), v.Bounds().Dy()
	dr.ClearRect(graphics.XYWH(0, 0, w, h))
	d := v.Drawing()
	if d == nil {
		return
	}
	for i, it := range d.Items() {
		v.drawItem(dr, it)
		if i == v.selected {
			dr.SetValue(graphics.Gray)
			dr.DrawRect(it.Bounds().Inset(-2))
			dr.SetValue(graphics.Black)
		}
	}
}

func (v *View) drawItem(dr *graphics.Drawable, it *Item) {
	shade := it.Shade
	if shade == graphics.White {
		shade = graphics.Black
	}
	dr.SetValue(shade)
	dr.SetLineWidth(it.Width)
	switch it.Kind {
	case Line:
		dr.DrawLine(it.P1, it.P2)
	case Rectangle:
		r := graphics.Rect{Min: it.P1, Max: it.P2}.Canon()
		if it.Filled {
			dr.FillRect(r)
		} else {
			dr.DrawRect(r)
		}
	case Ellipse:
		r := graphics.Rect{Min: it.P1, Max: it.P2}.Canon()
		if it.Filled {
			dr.FillOval(r)
		} else {
			dr.DrawOval(r)
		}
	case Polyline:
		dr.DrawPolyline(it.Pts, false)
	case Label:
		dr.SetFontDesc(it.Font)
		dr.DrawString(it.P1, it.Text)
	case Group:
		for _, c := range it.Children {
			v.drawItem(dr, c)
		}
	case Component:
		r := graphics.Rect{Min: it.P1, Max: it.P2}.Canon()
		if cv := v.childFor(it); cv != nil {
			cv.SetBounds(r)
			cv.FullUpdate(dr.Sub(r))
			cv.DrawOverlay(dr.Sub(r))
		} else {
			dr.SetValue(graphics.Gray)
			dr.DrawRect(r)
		}
	}
	dr.SetLineWidth(1)
	dr.SetValue(graphics.Black)
}

func (v *View) childFor(it *Item) core.View {
	if cv, ok := v.children[it]; ok {
		return cv
	}
	cv, err := core.NewViewFor(v.registry(), it.ViewName, it.Obj)
	if err != nil {
		v.children[it] = nil
		return nil
	}
	cv.SetParent(v.Self())
	v.children[it] = cv
	return cv
}

// Hit implements core.View. The drawing decides semantically what a click
// means: topmost item under the pointer is selected (and dragged); events
// over an embedded component that is NOT covered by something above it go
// to the component's view.
func (v *View) Hit(a wsys.MouseAction, p graphics.Point, clicks int) core.View {
	d := v.Drawing()
	if d == nil {
		return nil
	}
	if v.dragging && a != wsys.MouseDown {
		switch a {
		case wsys.MouseMove:
			if v.selected >= 0 {
				_ = d.MoveItem(v.selected, p.Sub(v.lastDrag))
				v.lastDrag = p
			}
		case wsys.MouseUp:
			v.dragging = false
		}
		v.WantUpdate(v.Self())
		return v.Self()
	}
	it, idx := d.TopAt(p, HitSlop)
	if it != nil && it.Kind == Component {
		r := graphics.Rect{Min: it.P1, Max: it.P2}.Canon()
		if cv := v.childFor(it); cv != nil {
			if got := cv.Hit(a, p.Sub(r.Min), clicks); got != nil {
				return got
			}
		}
	}
	if a == wsys.MouseDown {
		v.selected = idx
		v.dragging = idx >= 0
		v.lastDrag = p
		v.WantInputFocus(v.Self())
		v.WantUpdate(v.Self())
	}
	v.PostCursor(wsys.CursorCrosshair)
	return v.Self()
}

// Key implements core.View: delete removes the selection.
func (v *View) Key(ev wsys.Event) bool {
	d := v.Drawing()
	if d == nil {
		return false
	}
	switch {
	case ev.Key == wsys.KeyDelete || ev.Key == wsys.KeyBackspace:
		if v.selected >= 0 {
			_ = d.Remove(v.selected)
			v.selected = -1
			return true
		}
	}
	return false
}

// PostMenus implements core.View: item creation plus z-order commands.
func (v *View) PostMenus(ms *core.MenuSet) {
	d := v.Drawing()
	at := func() graphics.Point { return v.lastDrag }
	_ = ms.Add("Draw~25/Add Line~5", func() {
		p := at()
		_ = d.Add(&Item{Kind: Line, P1: p, P2: p.Add(graphics.Pt(40, 0)), Width: 1})
		v.selected = len(d.Items()) - 1
	})
	_ = ms.Add("Draw~25/Add Rect~6", func() {
		p := at()
		_ = d.Add(&Item{Kind: Rectangle, P1: p, P2: p.Add(graphics.Pt(50, 30)), Width: 1})
		v.selected = len(d.Items()) - 1
	})
	_ = ms.Add("Draw~25/Add Oval~7", func() {
		p := at()
		_ = d.Add(&Item{Kind: Ellipse, P1: p, P2: p.Add(graphics.Pt(50, 30)), Width: 1})
		v.selected = len(d.Items()) - 1
	})
	_ = ms.Add("Draw~25/Add Label~8", func() {
		p := at()
		_ = d.Add(&Item{Kind: Label, P1: p.Add(graphics.Pt(0, 12)), Text: "label",
			Font: graphics.DefaultFont, Width: 1})
		v.selected = len(d.Items()) - 1
	})
	_ = ms.Add("Draw~25/Raise~10", func() {
		if v.selected >= 0 {
			_ = d.Raise(v.selected)
			v.selected = len(d.Items()) - 1
		}
	})
	_ = ms.Add("Draw~25/Delete~11", func() {
		if v.selected >= 0 {
			_ = d.Remove(v.selected)
			v.selected = -1
		}
	})
	v.BaseView.PostMenus(ms)
}

// RegisterView installs the drawing view class in reg.
func RegisterView(reg *class.Registry) error {
	return reg.Register(class.Info{
		Name: "drawview",
		New:  func() any { return NewView(reg) },
	})
}
