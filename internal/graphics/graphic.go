package graphics

// Graphic is the output interface every window system port must supply —
// the "Graphic" class of the six porting classes in paper §8. All
// coordinates are in device space; implementations honor the clip
// rectangle set with SetClip. The Drawable wraps a Graphic with coordinate
// translation and graphics state, so views never call these directly.
type Graphic interface {
	// Bounds returns the drawing surface's rectangle in device space.
	Bounds() Rect
	// SetClip restricts subsequent output to r (intersected with Bounds).
	SetClip(r Rect)
	// Clear fills r with the background (White).
	Clear(r Rect)
	// FillRect fills r with v.
	FillRect(r Rect, v Pixel)
	// DrawLine strokes a line from a to b with the given width.
	DrawLine(a, b Point, width int, v Pixel)
	// DrawRect strokes the border of r.
	DrawRect(r Rect, width int, v Pixel)
	// DrawOval strokes the ellipse inscribed in r.
	DrawOval(r Rect, width int, v Pixel)
	// FillOval fills the ellipse inscribed in r.
	FillOval(r Rect, v Pixel)
	// DrawArc strokes the arc of the ellipse inscribed in r from startDeg
	// counterclockwise through sweepDeg (degrees, 0 = 3 o'clock).
	DrawArc(r Rect, startDeg, sweepDeg, width int, v Pixel)
	// FillArc fills the pie wedge of the ellipse inscribed in r.
	FillArc(r Rect, startDeg, sweepDeg int, v Pixel)
	// DrawPolyline strokes segments between consecutive points, closing the
	// figure when closed is set.
	DrawPolyline(pts []Point, width int, v Pixel, closed bool)
	// FillPolygon fills the polygon with even-odd winding.
	FillPolygon(pts []Point, v Pixel)
	// DrawString draws s with its baseline starting at p.
	DrawString(p Point, s string, f *Font, v Pixel)
	// DrawBitmap copies bm so its origin lands at dst.
	DrawBitmap(dst Point, bm *Bitmap)
	// CopyArea copies the src rectangle to the rectangle at dst (used for
	// scrolling). Source and destination may overlap.
	CopyArea(src Rect, dst Point)
	// InvertArea inverts pixel values in r (selection highlighting).
	InvertArea(r Rect)
	// Flush pushes buffered output to the display medium.
	Flush() error
	// FlushRegion pushes at least the pixels of reg (device space) to the
	// display medium. Backends are free to flush more — Flush is
	// equivalent to FlushRegion over the whole surface — but a backend
	// with an expensive present step (a remote window system) should push
	// only the dirty rectangles.
	FlushRegion(reg Region) error
}

// The helpers below implement the primitive scan conversions once, on top
// of a set-pixel callback, so every raster backend shares one correct
// implementation (memwin, off-screen windows, the raster component's
// editing ops).

// RasterLine runs Bresenham's algorithm from a to b, thickened to width by
// stamping a square brush at each step.
func RasterLine(a, b Point, width int, set func(x, y int)) {
	if width < 1 {
		width = 1
	}
	stamp := func(x, y int) {
		if width == 1 {
			set(x, y)
			return
		}
		half := width / 2
		for dy := -half; dy <= (width-1)-half; dy++ {
			for dx := -half; dx <= (width-1)-half; dx++ {
				set(x+dx, y+dy)
			}
		}
	}
	dx, dy := b.X-a.X, b.Y-a.Y
	sx, sy := 1, 1
	if dx < 0 {
		dx, sx = -dx, -1
	}
	if dy < 0 {
		dy, sy = -dy, -1
	}
	x, y := a.X, a.Y
	err := dx - dy
	for {
		stamp(x, y)
		if x == b.X && y == b.Y {
			return
		}
		e2 := 2 * err
		if e2 > -dy {
			err -= dy
			x += sx
		}
		if e2 < dx {
			err += dx
			y += sy
		}
	}
}

// RasterOval scan-converts the ellipse inscribed in r using the midpoint
// method; fill selects outline versus solid. width applies to outlines.
func RasterOval(r Rect, width int, fill bool, set func(x, y int)) {
	r = r.Canon()
	if r.Empty() {
		return
	}
	// Work in doubled coordinates to center on half-pixels for even sizes.
	a, b := r.Dx()-1, r.Dy()-1
	if a == 0 && b == 0 {
		set(r.Min.X, r.Min.Y)
		return
	}
	cx2, cy2 := r.Min.X*2+a, r.Min.Y*2+b // center*2
	put := func(x, y int) {
		px0, py0 := (cx2-x)/2, (cy2-y)/2
		px1, py1 := (cx2+x+1)/2, (cy2+y+1)/2
		if fill {
			for px := px0; px <= px1; px++ {
				set(px, py0)
				set(px, py1)
			}
			return
		}
		for w := 0; w < width; w++ {
			set(px0+w, py0)
			set(px1-w, py0)
			set(px0+w, py1)
			set(px1-w, py1)
			set(px0, py0+w)
			set(px1, py0+w)
			set(px0, py1-w)
			set(px1, py1-w)
		}
	}
	// Parametric march: robust for all aspect ratios at toolkit sizes.
	steps := 2 * (a + b + 4)
	for i := 0; i <= steps; i++ {
		// Quarter arc; put mirrors to all quadrants.
		x := (a * cosQ(i, steps)) / qscale
		y := (b * sinQ(i, steps)) / qscale
		put(x, y)
	}
}

const qscale = 1024

// cosQ/sinQ return qscale*cos/sin of the angle i/steps * 90° using a
// small-table integer approximation; deterministic across platforms.
func cosQ(i, steps int) int { return isin(((steps - i) * 90 * 16) / steps) }
func sinQ(i, steps int) int { return isin((i * 90 * 16) / steps) }

// isin returns qscale*sin(a) where a is in 1/16-degree units, 0..1440.
func isin(a int) int {
	// Table of sin at whole degrees scaled by qscale.
	d := a / 16
	frac := a % 16
	if d >= 90 {
		return qscale
	}
	s0, s1 := sinTable[d], sinTable[d+1]
	return s0 + (s1-s0)*frac/16
}

var sinTable = func() [91]int {
	// Bhaskara I approximation in integer arithmetic: good to ~0.2%.
	var t [91]int
	for d := 0; d <= 90; d++ {
		num := 4 * d * (180 - d)
		den := 40500 - d*(180-d)
		t[d] = qscale * num / den
	}
	t[90] = qscale
	return t
}()

// ISin returns qscale-scaled sine of deg (any integer degrees).
func ISin(deg int) int {
	deg = ((deg % 360) + 360) % 360
	switch {
	case deg <= 90:
		return isin(deg * 16)
	case deg <= 180:
		return isin((180 - deg) * 16)
	case deg <= 270:
		return -isin((deg - 180) * 16)
	default:
		return -isin((360 - deg) * 16)
	}
}

// ICos returns qscale-scaled cosine of deg.
func ICos(deg int) int { return ISin(deg + 90) }

// IScale is the fixed-point scale used by ISin and ICos.
const IScale = qscale

// ArcPoints returns polyline points approximating the arc of the ellipse
// inscribed in r from startDeg counterclockwise through sweepDeg. Screen Y
// grows downward, so positive (counterclockwise) angles subtract from Y.
func ArcPoints(r Rect, startDeg, sweepDeg int) []Point {
	r = r.Canon()
	cx2, cy2 := r.Min.X+r.Max.X-1, r.Min.Y+r.Max.Y-1
	a, b := r.Dx()-1, r.Dy()-1
	n := abs(sweepDeg)/6 + 2
	pts := make([]Point, 0, n+1)
	for i := 0; i <= n; i++ {
		ang := startDeg + sweepDeg*i/n
		x := (cx2 + a*ICos(ang)/IScale) / 2
		y := (cy2 - b*ISin(ang)/IScale) / 2
		if len(pts) > 0 && pts[len(pts)-1] == Pt(x, y) {
			continue
		}
		pts = append(pts, Pt(x, y))
	}
	return pts
}

// RasterPolygonFill scan-converts a polygon with even-odd winding.
func RasterPolygonFill(pts []Point, set func(x, y int)) {
	if len(pts) < 3 {
		return
	}
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	var xs []int
	for y := minY; y <= maxY; y++ {
		xs = xs[:0]
		j := len(pts) - 1
		for i := 0; i < len(pts); i++ {
			a, b := pts[i], pts[j]
			if (a.Y <= y && b.Y > y) || (b.Y <= y && a.Y > y) {
				x := a.X + (y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
				xs = append(xs, x)
			}
			j = i
		}
		sortInts(xs)
		for i := 0; i+1 < len(xs); i += 2 {
			for x := xs[i]; x <= xs[i+1]; x++ {
				set(x, y)
			}
		}
	}
}

// RasterGlyph scales the 5x7 cell for r into a wxh box whose baseline sits
// at (x, baseY), emulating bold by over-striking and italic by shearing.
// It walks the cells glyphCells yields, pixel by pixel; a Font's Glyphs
// table holds the same cells for the same box.
func RasterGlyph(r rune, x, baseY, w, h int, style FontStyle, set func(x, y int)) {
	glyphCells(r, w, h, style, func(x0, y0, x1, y1 int) {
		for py := baseY + y0; py < baseY+y1; py++ {
			for px := x + x0; px < x+x1; px++ {
				set(px, py)
			}
		}
	})
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
