// Package pageview implements the full-WYSIWYG, paper-based text view the
// paper promises in §2: "In this case we plan on providing a full WYSIWYG
// text view. This paper-based text view will be designed to use the same
// text data object. The user ... perhaps [has] one window using the
// normal text view and the other using the WYSIWYG text view. Again
// changes made in one window will automatically be reflected in the
// other."
//
// View paginates a text data object onto fixed-size pages with margins,
// honors style justification (including right and centered text the
// screen view approximates), and renders one page at a time with a page
// border and folio. It is a second view TYPE on the same data object as
// textview.View — the architectural point of §2.
package pageview

import (
	"fmt"
	"slices"

	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/graphics"
	"atk/internal/text"
	"atk/internal/wsys"
)

// Page geometry (pixels). US-letter-ish at our synthetic resolution.
const (
	PageW   = 480
	PageH   = 620
	MarginX = 48
	MarginY = 52
)

// pLine is one paginated output line.
type pLine struct {
	start, end int
	x, y       int // placement within the page body
	font       *graphics.Font
	just       text.Justify
	child      *text.Embedded
	cw, ch     int // child box, when child != nil
}

// page is one laid-out page.
type page struct {
	lines []pLine
}

// View is the WYSIWYG page view.
type View struct {
	core.BaseView
	reg *class.Registry

	pageIdx int
	pages   []page
	dirty   bool

	children map[*text.Embedded]core.View
}

// New returns an unattached page view.
func New(reg *class.Registry) *View {
	v := &View{reg: reg, dirty: true, children: make(map[*text.Embedded]core.View)}
	v.InitView(v, "pageview")
	return v
}

func (v *View) registry() *class.Registry {
	if v.reg != nil {
		return v.reg
	}
	return class.Default
}

// Text returns the shared text data object, or nil.
func (v *View) Text() *text.Data {
	d, _ := v.DataObject().(*text.Data)
	return d
}

// ObservedChanged implements core.View: the same delayed-update contract
// as the screen view — repagination is deferred to the update cycle. The
// gray desk around the page never changes, so only the page rectangle is
// damaged.
func (v *View) ObservedChanged(obj core.DataObject, ch core.Change) {
	v.dirty = true
	v.damagePage()
}

// damagePage posts the page rectangle (not the surrounding desk) as the
// view's damage.
func (v *View) damagePage() {
	px := (v.Bounds().Dx() - PageW) / 2
	if px < 0 {
		px = 0
	}
	v.WantUpdateRegion(v.Self(), graphics.RectRegion(graphics.XYWH(px, 8, PageW, PageH)))
}

// Pages returns the page count (repaginating if needed).
func (v *View) Pages() int {
	v.ensure()
	return len(v.pages)
}

// PageIndex returns the displayed page (0-based).
func (v *View) PageIndex() int { return v.pageIdx }

// SetPage displays page i (clamped).
func (v *View) SetPage(i int) {
	v.ensure()
	if i >= len(v.pages) {
		i = len(v.pages) - 1
	}
	if i < 0 {
		i = 0
	}
	if i != v.pageIdx {
		v.pageIdx = i
		v.damagePage()
	}
}

func (v *View) ensure() {
	if v.dirty {
		v.paginate()
	}
}

// paginate lays the whole document onto pages.
func (v *View) paginate() {
	v.pages = nil
	v.dirty = false
	d := v.Text()
	if d == nil {
		v.pages = []page{{}}
		return
	}
	bodyW := PageW - 2*MarginX
	bodyH := PageH - 2*MarginY
	cur := page{}
	y := 0
	newPage := func() {
		v.pages = append(v.pages, cur)
		cur = page{}
		y = 0
	}
	pos := 0
	for pos <= d.Len() {
		ln, next := v.layoutLine(d, pos, bodyW)
		if y+heightOf(ln) > bodyH && len(cur.lines) > 0 {
			newPage()
		}
		for i := range ln {
			ln[i].y = y
		}
		cur.lines = append(cur.lines, ln...)
		y += heightOf(ln)
		if next <= pos {
			break
		}
		pos = next
		if pos >= d.Len() {
			break
		}
	}
	v.pages = append(v.pages, cur)
	if v.pageIdx >= len(v.pages) {
		v.pageIdx = len(v.pages) - 1
	}
}

func heightOf(ln []pLine) int {
	h := 0
	for _, l := range ln {
		lh := 0
		if l.child != nil {
			lh = l.ch
		} else if l.font != nil {
			lh = l.font.Height() + l.font.Height()/4 // leaded for print
		}
		if lh > h {
			h = lh
		}
	}
	if h == 0 {
		h = 14
	}
	return h
}

// layoutLine lays one display line starting at pos; returns its fragments
// and the position of the next line. A fragment per font run keeps the
// implementation simple (one fragment per line is the common case).
func (v *View) layoutLine(d *text.Data, pos, width int) ([]pLine, int) {
	styleDef := d.Styles().Lookup(d.StyleAt(pos))
	f := graphics.Open(styleDef.Font)
	indent := styleDef.Indent
	x := indent
	start := pos
	cur := pos
	lastBreak := -1
	var child *text.Embedded
	c := d.Cursor(pos)
	for cur < d.Len() {
		r, ok := c.Next()
		if !ok {
			break
		}
		if r == '\n' {
			return v.fragments(d, start, cur, indent, x, f, styleDef.Justify, width, nil, 0, 0), cur + 1
		}
		if r == text.AnchorRune {
			if cur > start {
				// Break before the child; the child gets its own line on
				// paper (figures are block elements in print).
				return v.fragments(d, start, cur, indent, x, f, styleDef.Justify, width, nil, 0, 0), cur
			}
			child = d.EmbeddedAt(cur)
			cw, ch := v.childSize(child, width)
			return []pLine{{start: cur, end: cur + 1, x: (width - cw) / 2,
				child: child, cw: cw, ch: ch}}, cur + 1
		}
		rw := f.RuneWidth(r)
		if x+rw > width && cur > start {
			brk := cur
			if lastBreak > start {
				brk = lastBreak
			}
			endX := v.measure(d, start, brk, f, indent)
			return v.fragments(d, start, brk, indent, endX, f, styleDef.Justify, width, nil, 0, 0), brk
		}
		if r == ' ' || r == '\t' {
			lastBreak = cur + 1
		}
		x += rw
		cur++
	}
	return v.fragments(d, start, cur, indent, x, f, styleDef.Justify, width, nil, 0, 0), cur + 1
}

func (v *View) measure(d *text.Data, start, end int, f *graphics.Font, indent int) int {
	return indent + f.TextWidth(d.Slice(start, end))
}

func (v *View) fragments(d *text.Data, start, end, indent, endX int, f *graphics.Font,
	just text.Justify, width int, child *text.Embedded, cw, ch int) []pLine {
	x := indent
	switch just {
	case text.JustifyCenter:
		x = (width - (endX - indent)) / 2
	case text.JustifyRight:
		x = width - (endX - indent)
	}
	if x < 0 {
		x = 0
	}
	return []pLine{{start: start, end: end, x: x, font: f, just: just,
		child: child, cw: cw, ch: ch}}
}

func (v *View) childSize(e *text.Embedded, availW int) (int, int) {
	cv := v.childView(e)
	if cv == nil {
		return 40, 20
	}
	w, h := cv.DesiredSize(availW, 0)
	if w > availW {
		w = availW
	}
	return w, h
}

func (v *View) childView(e *text.Embedded) core.View {
	if cv, ok := v.children[e]; ok {
		return cv
	}
	cv, err := core.NewViewFor(v.registry(), e.ViewName, e.Obj)
	if err != nil {
		v.children[e] = nil
		return nil
	}
	cv.SetParent(v.Self())
	v.children[e] = cv
	return cv
}

// DesiredSize implements core.View: one page plus a border gutter.
func (v *View) DesiredSize(wHint, hHint int) (int, int) {
	return PageW + 16, PageH + 16
}

// FullUpdate implements core.View: the current page, WYSIWYG.
func (v *View) FullUpdate(dr *graphics.Drawable) {
	v.ensure()
	w, h := v.Bounds().Dx(), v.Bounds().Dy()
	dr.FillRectValue(graphics.XYWH(0, 0, w, h), graphics.Gray) // desk
	px := (w - PageW) / 2
	if px < 0 {
		px = 0
	}
	pageR := graphics.XYWH(px, 8, PageW, PageH)
	dr.ClearRect(pageR)
	dr.SetValue(graphics.Black)
	dr.DrawRect(pageR)

	d := v.Text()
	if d == nil || v.pageIdx >= len(v.pages) {
		return
	}
	pg := v.pages[v.pageIdx]
	ox, oy := pageR.Min.X+MarginX, pageR.Min.Y+MarginY
	var shown []*text.Embedded
	for _, ln := range pg.lines {
		if ln.child != nil {
			shown = append(shown, ln.child)
			r := graphics.XYWH(ox+ln.x, oy+ln.y, ln.cw, ln.ch)
			if cv := v.childView(ln.child); cv != nil {
				cv.SetBounds(r)
				cv.FullUpdate(dr.Sub(r))
			} else {
				dr.SetValue(graphics.Gray)
				dr.DrawRect(r)
				dr.SetValue(graphics.Black)
			}
			continue
		}
		if ln.font == nil || ln.end <= ln.start {
			continue
		}
		dr.SetFont(ln.font)
		dr.SetValue(graphics.Black)
		dr.DrawString(graphics.Pt(ox+ln.x, oy+ln.y+ln.font.Ascent()), d.Slice(ln.start, ln.end))
	}
	// A child not on this page keeps no bounds, so an update it posts
	// cannot paint over what is now in its old place.
	for e, cv := range v.children {
		if cv != nil && !cv.Bounds().Empty() && !slices.Contains(shown, e) {
			cv.SetBounds(graphics.Rect{})
		}
	}
	// Folio, centered in the bottom margin.
	dr.SetFontDesc(graphics.FontDesc{Family: "andy", Size: 10})
	dr.DrawStringAligned(graphics.Pt(pageR.Center().X, pageR.Max.Y-18),
		fmt.Sprintf("- %d -", v.pageIdx+1), graphics.AlignCenter)
}

// Key implements core.View: page navigation only — the WYSIWYG view is a
// proofing view; edits happen in the companion screen view and appear
// here through the observer mechanism.
func (v *View) Key(ev wsys.Event) bool {
	switch ev.Key {
	case wsys.KeyPageDown, wsys.KeyRight, wsys.KeyDown:
		v.SetPage(v.pageIdx + 1)
	case wsys.KeyPageUp, wsys.KeyLeft, wsys.KeyUp:
		v.SetPage(v.pageIdx - 1)
	case wsys.KeyHome:
		v.SetPage(0)
	case wsys.KeyEnd:
		v.SetPage(v.Pages() - 1)
	default:
		return false
	}
	return true
}

// Hit implements core.View: click to focus; left/right half page-turns on
// double click.
func (v *View) Hit(a wsys.MouseAction, p graphics.Point, clicks int) core.View {
	if a == wsys.MouseDown {
		v.WantInputFocus(v.Self())
		if clicks >= 2 {
			if p.X > v.Bounds().Dx()/2 {
				v.SetPage(v.pageIdx + 1)
			} else {
				v.SetPage(v.pageIdx - 1)
			}
		}
	}
	return v.Self()
}

// PostMenus implements core.View.
func (v *View) PostMenus(ms *core.MenuSet) {
	_ = ms.Add("Page~24/Next~10", func() { v.SetPage(v.pageIdx + 1) })
	_ = ms.Add("Page~24/Previous~11", func() { v.SetPage(v.pageIdx - 1) })
	_ = ms.Add("Page~24/First~12", func() { v.SetPage(0) })
	v.BaseView.PostMenus(ms)
}

// Register installs the pageview class in reg; because it is just another
// view class, a \view{pageview,N} reference in a document works like any
// other.
func Register(reg *class.Registry) error {
	return reg.Register(class.Info{
		Name: "pageview",
		New:  func() any { return New(reg) },
	})
}
