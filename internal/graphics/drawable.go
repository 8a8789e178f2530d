package graphics

// Drawable is the object every view draws through (paper §4). It carries
// the current graphics medium (a Graphic), the drawable's placement within
// that medium, a clip rectangle, and a small graphics state: current
// point, line width, pixel value, font. Views receive a Drawable from
// their interaction manager; printing retargets the same view at a
// Drawable whose Graphic is a printer device.
//
// All coordinates passed to Drawable methods are in the drawable's local
// space: (0,0) is the top-left corner of the view's allocated rectangle.
type Drawable struct {
	g      Graphic
	origin Point // local (0,0) in device space
	clip   Rect  // device-space clip

	// Damage clip: when set, draw operations touch only the pixels in
	// region ∩ clip. The interaction manager installs the flush-time
	// damage region here so a view's Update repaints damaged pixels only.
	region    Region // device-space, disjoint rects
	hasRegion bool

	// Graphics state.
	pen   Point // current point, local space
	width int
	value Pixel
	font  *Font
}

// NewDrawable wraps g with origin (0,0) and a clip covering all of g.
func NewDrawable(g Graphic) *Drawable {
	return &Drawable{g: g, clip: g.Bounds(), width: 1, value: Black, font: Open(DefaultFont)}
}

// Graphic returns the underlying output medium.
func (d *Drawable) Graphic() Graphic { return d.g }

// Retarget points the drawable at a different Graphic, keeping origin and
// state; the clip resets to the new medium's bounds. This is the printing
// mechanism: shift to a printer device, redraw, shift back.
func (d *Drawable) Retarget(g Graphic) {
	d.g = g
	d.clip = g.Bounds()
	d.region = Region{}
	d.hasRegion = false
}

// SetRegion restricts subsequent draw operations to reg (device space) in
// addition to the clip rectangle. An empty reg removes the restriction.
// When reg is a single rectangle that already contains the whole clip the
// restriction is dropped too: the clip rect alone is equivalent and
// cheaper.
func (d *Drawable) SetRegion(reg Region) {
	if reg.Empty() {
		d.region = Region{}
		d.hasRegion = false
		return
	}
	if rs := reg.Rects(); len(rs) == 1 && d.clip == rs[0].Intersect(d.clip) {
		d.region = Region{}
		d.hasRegion = false
		return
	}
	d.region = reg
	d.hasRegion = true
}

// Region returns the damage region installed with SetRegion and whether
// one is active.
func (d *Drawable) Region() (Region, bool) { return d.region, d.hasRegion }

// Sub returns a drawable for the child rectangle r of d (local space):
// same Graphic, translated origin, clip intersected. Graphics state starts
// fresh. This is how a parent view hands screen space to a child.
func (d *Drawable) Sub(r Rect) *Drawable {
	dev := r.Translate(d.origin)
	return &Drawable{
		g:         d.g,
		origin:    dev.Min,
		clip:      dev.Intersect(d.clip),
		region:    d.region,
		hasRegion: d.hasRegion,
		width:     1,
		value:     Black,
		font:      Open(DefaultFont),
	}
}

// Origin returns local (0,0) in device coordinates.
func (d *Drawable) Origin() Point { return d.origin }

// Clip returns the device-space clip rectangle.
func (d *Drawable) Clip() Rect { return d.clip }

// LocalClip returns the clip rectangle in local coordinates.
func (d *Drawable) LocalClip() Rect {
	return d.clip.Translate(Pt(-d.origin.X, -d.origin.Y))
}

// Touches reports whether local rect r meets the clip and, when a damage
// region is installed, the region: whether drawing confined to r can
// change a pixel. Views use it to skip work the clip would discard.
func (d *Drawable) Touches(r Rect) bool {
	c := d.devR(r).Intersect(d.clip)
	if c.Empty() {
		return false
	}
	if !d.hasRegion {
		return true
	}
	for _, rr := range d.region.Rects() {
		if rr.Overlaps(c) {
			return true
		}
	}
	return false
}

// SetClipLocal narrows the clip to r (local space) intersected with the
// current clip, returning the previous device clip for restoration.
func (d *Drawable) SetClipLocal(r Rect) Rect {
	old := d.clip
	d.clip = r.Translate(d.origin).Intersect(d.clip)
	return old
}

// RestoreClip restores a clip previously returned by SetClipLocal.
func (d *Drawable) RestoreClip(c Rect) { d.clip = c }

func (d *Drawable) dev(p Point) Point { return p.Add(d.origin) }
func (d *Drawable) devR(r Rect) Rect  { return r.Translate(d.origin) }

// emit runs fn once per effective clip rectangle. Without a damage
// region that is the plain clip rect; with one, fn repeats under each
// region rect intersected with the clip. Region rects are disjoint, so
// even non-idempotent operations (InvertArea) execute at most once per
// pixel.
func (d *Drawable) emit(fn func()) {
	if !d.hasRegion {
		d.g.SetClip(d.clip)
		fn()
		return
	}
	for _, r := range d.region.Rects() {
		c := r.Intersect(d.clip)
		if c.Empty() {
			continue
		}
		d.g.SetClip(c)
		fn()
	}
}

// --- graphics state ---

// SetValue selects the pixel value (ink) for subsequent strokes and fills.
func (d *Drawable) SetValue(v Pixel) { d.value = v }

// Value returns the current ink.
func (d *Drawable) Value() Pixel { return d.value }

// SetLineWidth selects the stroke width.
func (d *Drawable) SetLineWidth(w int) {
	if w < 1 {
		w = 1
	}
	d.width = w
}

// LineWidth returns the current stroke width.
func (d *Drawable) LineWidth() int { return d.width }

// SetFont selects the font for subsequent text.
func (d *Drawable) SetFont(f *Font) {
	if f != nil {
		d.font = f
	}
}

// SetFontDesc selects the font by description.
func (d *Drawable) SetFontDesc(fd FontDesc) { d.font = Open(fd) }

// Font returns the current font.
func (d *Drawable) Font() *Font { return d.font }

// MoveTo sets the current point.
func (d *Drawable) MoveTo(p Point) { d.pen = p }

// RMoveTo moves the current point relatively.
func (d *Drawable) RMoveTo(dx, dy int) { d.pen = d.pen.Add(Pt(dx, dy)) }

// Pen returns the current point.
func (d *Drawable) Pen() Point { return d.pen }

// --- strokes ---

// LineTo strokes from the current point to p and moves the pen there.
func (d *Drawable) LineTo(p Point) {
	d.emit(func() { d.g.DrawLine(d.dev(d.pen), d.dev(p), d.width, d.value) })
	d.pen = p
}

// RLineTo strokes a relative segment.
func (d *Drawable) RLineTo(dx, dy int) { d.LineTo(d.pen.Add(Pt(dx, dy))) }

// DrawLine strokes a segment without touching the pen.
func (d *Drawable) DrawLine(a, b Point) {
	d.emit(func() { d.g.DrawLine(d.dev(a), d.dev(b), d.width, d.value) })
}

// DrawRect strokes the border of r.
func (d *Drawable) DrawRect(r Rect) {
	d.emit(func() { d.g.DrawRect(d.devR(r), d.width, d.value) })
}

// FillRect fills r with the current ink.
func (d *Drawable) FillRect(r Rect) {
	d.emit(func() { d.g.FillRect(d.devR(r), d.value) })
}

// FillRectValue fills r with an explicit pixel value.
func (d *Drawable) FillRectValue(r Rect, v Pixel) {
	d.emit(func() { d.g.FillRect(d.devR(r), v) })
}

// ClearRect fills r with the background.
func (d *Drawable) ClearRect(r Rect) {
	d.emit(func() { d.g.Clear(d.devR(r)) })
}

// DrawOval strokes the ellipse inscribed in r.
func (d *Drawable) DrawOval(r Rect) {
	d.emit(func() { d.g.DrawOval(d.devR(r), d.width, d.value) })
}

// FillOval fills the ellipse inscribed in r.
func (d *Drawable) FillOval(r Rect) {
	d.emit(func() { d.g.FillOval(d.devR(r), d.value) })
}

// DrawArc strokes an elliptical arc (degrees, counterclockwise from 3
// o'clock).
func (d *Drawable) DrawArc(r Rect, startDeg, sweepDeg int) {
	d.emit(func() { d.g.DrawArc(d.devR(r), startDeg, sweepDeg, d.width, d.value) })
}

// FillArc fills a pie wedge.
func (d *Drawable) FillArc(r Rect, startDeg, sweepDeg int) {
	d.emit(func() { d.g.FillArc(d.devR(r), startDeg, sweepDeg, d.value) })
}

// DrawPolyline strokes consecutive segments, optionally closing the figure.
func (d *Drawable) DrawPolyline(pts []Point, closed bool) {
	d.emit(func() { d.g.DrawPolyline(d.devPts(pts), d.width, d.value, closed) })
}

// FillPolygon fills a polygon with even-odd winding.
func (d *Drawable) FillPolygon(pts []Point) {
	d.emit(func() { d.g.FillPolygon(d.devPts(pts), d.value) })
}

func (d *Drawable) devPts(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = d.dev(p)
	}
	return out
}

// RoundRect strokes r with corners rounded by radius.
func (d *Drawable) RoundRect(r Rect, radius int) {
	if radius <= 0 {
		d.DrawRect(r)
		return
	}
	rr := r.Canon()
	if 2*radius > rr.Dx() {
		radius = rr.Dx() / 2
	}
	if 2*radius > rr.Dy() {
		radius = rr.Dy() / 2
	}
	x0, y0, x1, y1 := rr.Min.X, rr.Min.Y, rr.Max.X-1, rr.Max.Y-1
	d.DrawLine(Pt(x0+radius, y0), Pt(x1-radius, y0))
	d.DrawLine(Pt(x0+radius, y1), Pt(x1-radius, y1))
	d.DrawLine(Pt(x0, y0+radius), Pt(x0, y1-radius))
	d.DrawLine(Pt(x1, y0+radius), Pt(x1, y1-radius))
	dia := 2 * radius
	d.DrawArc(XYWH(x0, y0, dia, dia), 90, 90)
	d.DrawArc(XYWH(x1-dia, y0, dia, dia), 0, 90)
	d.DrawArc(XYWH(x0, y1-dia, dia, dia), 180, 90)
	d.DrawArc(XYWH(x1-dia, y1-dia, dia, dia), 270, 90)
}

// --- text ---

// TextAlign selects horizontal string placement relative to the given
// point.
type TextAlign int

// Text alignment modes.
const (
	AlignLeft TextAlign = iota
	AlignCenter
	AlignRight
)

// DrawString draws s with its baseline starting at p and advances the pen.
func (d *Drawable) DrawString(p Point, s string) {
	d.emit(func() { d.g.DrawString(d.dev(p), s, d.font, d.value) })
	d.pen = p.Add(Pt(d.font.TextWidth(s), 0))
}

// DrawStringAligned draws s aligned about p.
func (d *Drawable) DrawStringAligned(p Point, s string, align TextAlign) {
	w := d.font.TextWidth(s)
	switch align {
	case AlignCenter:
		p.X -= w / 2
	case AlignRight:
		p.X -= w
	}
	d.DrawString(p, s)
}

// DrawStringInBox draws s horizontally centered in r, baseline positioned
// so the text is vertically centered.
func (d *Drawable) DrawStringInBox(r Rect, s string) {
	f := d.font
	base := r.Min.Y + (r.Dy()+f.Ascent()-f.Descent())/2
	d.DrawStringAligned(Pt(r.Center().X, base), s, AlignCenter)
}

// TextWidth measures s in the current font.
func (d *Drawable) TextWidth(s string) int { return d.font.TextWidth(s) }

// FontHeight returns the current font's line height.
func (d *Drawable) FontHeight() int { return d.font.Height() }

// --- images and area ops ---

// DrawBitmap copies bm with its origin at dst (local space).
func (d *Drawable) DrawBitmap(dst Point, bm *Bitmap) {
	d.emit(func() { d.g.DrawBitmap(d.dev(dst), bm) })
}

// CopyArea copies the src rectangle to dst; used for scrolling.
func (d *Drawable) CopyArea(src Rect, dst Point) {
	d.emit(func() { d.g.CopyArea(d.devR(src), d.dev(dst)) })
}

// InvertArea inverts r, the selection-highlight primitive.
func (d *Drawable) InvertArea(r Rect) {
	d.emit(func() { d.g.InvertArea(d.devR(r)) })
}

// Flush pushes buffered output to the medium.
func (d *Drawable) Flush() error { return d.g.Flush() }
