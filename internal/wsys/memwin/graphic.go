// Package memwin is an in-memory raster window system: the stand-in for
// the original ITC window manager. Windows are bitmaps, input is injected
// programmatically, and output can be snapshotted or dumped as ASCII art,
// which makes every toolkit application's behaviour observable and
// deterministic in tests and benchmarks.
package memwin

import (
	"atk/internal/graphics"
)

// Graphic rasterizes the porting-layer drawing operations into a Bitmap.
// It implements graphics.Graphic.
type Graphic struct {
	bm   *graphics.Bitmap
	clip graphics.Rect
	// ops counts primitive calls; used by benchmarks comparing backends.
	ops int64
	// pixels counts raster writes that landed inside the clip — the
	// "pixels touched" metric the repaint benchmarks report.
	pixels int64
	// lastFlush records the region passed to the most recent FlushRegion
	// call (test introspection of the damage pipeline).
	lastFlush graphics.Region
}

// NewGraphic returns a Graphic drawing into bm.
func NewGraphic(bm *graphics.Bitmap) *Graphic {
	return &Graphic{bm: bm, clip: bm.Bounds()}
}

// Bitmap exposes the backing store (for snapshots and tests).
func (g *Graphic) Bitmap() *graphics.Bitmap { return g.bm }

// Ops returns the number of primitive operations performed.
func (g *Graphic) Ops() int64 { return g.ops }

// PixelsTouched returns the number of in-clip pixel writes performed.
func (g *Graphic) PixelsTouched() int64 { return g.pixels }

// ResetCounters zeroes the ops and pixels-touched counters.
func (g *Graphic) ResetCounters() { g.ops, g.pixels = 0, 0 }

// LastFlushRegion returns the region of the most recent FlushRegion call.
func (g *Graphic) LastFlushRegion() graphics.Region { return g.lastFlush }

// Bounds implements graphics.Graphic.
func (g *Graphic) Bounds() graphics.Rect { return g.bm.Bounds() }

// SetClip implements graphics.Graphic.
func (g *Graphic) SetClip(r graphics.Rect) {
	g.clip = r.Intersect(g.bm.Bounds())
}

// set writes one clipped pixel.
func (g *Graphic) set(x, y int, v graphics.Pixel) {
	if !graphics.Pt(x, y).In(g.clip) {
		return
	}
	g.pixels++
	g.bm.Set(x, y, v)
}

func (g *Graphic) setter(v graphics.Pixel) func(x, y int) {
	return func(x, y int) { g.set(x, y, v) }
}

// Clear implements graphics.Graphic.
func (g *Graphic) Clear(r graphics.Rect) { g.FillRect(r, graphics.White) }

// FillRect implements graphics.Graphic.
func (g *Graphic) FillRect(r graphics.Rect, v graphics.Pixel) {
	g.ops++
	c := r.Intersect(g.clip)
	g.pixels += int64(c.Dx()) * int64(c.Dy())
	g.bm.Fill(c, v)
}

// DrawLine implements graphics.Graphic.
func (g *Graphic) DrawLine(a, b graphics.Point, width int, v graphics.Pixel) {
	g.ops++
	graphics.RasterLine(a, b, width, g.setter(v))
}

// DrawRect implements graphics.Graphic.
func (g *Graphic) DrawRect(r graphics.Rect, width int, v graphics.Pixel) {
	g.ops++
	r = r.Canon()
	if r.Empty() {
		return
	}
	for i := 0; i < width; i++ {
		rr := r.Inset(i)
		if rr.Empty() {
			return
		}
		x0, y0, x1, y1 := rr.Min.X, rr.Min.Y, rr.Max.X-1, rr.Max.Y-1
		set := g.setter(v)
		graphics.RasterLine(graphics.Pt(x0, y0), graphics.Pt(x1, y0), 1, set)
		graphics.RasterLine(graphics.Pt(x1, y0), graphics.Pt(x1, y1), 1, set)
		graphics.RasterLine(graphics.Pt(x1, y1), graphics.Pt(x0, y1), 1, set)
		graphics.RasterLine(graphics.Pt(x0, y1), graphics.Pt(x0, y0), 1, set)
	}
}

// DrawOval implements graphics.Graphic.
func (g *Graphic) DrawOval(r graphics.Rect, width int, v graphics.Pixel) {
	g.ops++
	graphics.RasterOval(r, width, false, g.setter(v))
}

// FillOval implements graphics.Graphic.
func (g *Graphic) FillOval(r graphics.Rect, v graphics.Pixel) {
	g.ops++
	graphics.RasterOval(r, 1, true, g.setter(v))
}

// DrawArc implements graphics.Graphic.
func (g *Graphic) DrawArc(r graphics.Rect, startDeg, sweepDeg, width int, v graphics.Pixel) {
	g.ops++
	pts := graphics.ArcPoints(r, startDeg, sweepDeg)
	set := g.setter(v)
	for i := 0; i+1 < len(pts); i++ {
		graphics.RasterLine(pts[i], pts[i+1], width, set)
	}
}

// FillArc implements graphics.Graphic.
func (g *Graphic) FillArc(r graphics.Rect, startDeg, sweepDeg int, v graphics.Pixel) {
	g.ops++
	pts := graphics.ArcPoints(r, startDeg, sweepDeg)
	center := r.Center()
	poly := append([]graphics.Point{center}, pts...)
	graphics.RasterPolygonFill(poly, g.setter(v))
}

// DrawPolyline implements graphics.Graphic.
func (g *Graphic) DrawPolyline(pts []graphics.Point, width int, v graphics.Pixel, closed bool) {
	g.ops++
	set := g.setter(v)
	for i := 0; i+1 < len(pts); i++ {
		graphics.RasterLine(pts[i], pts[i+1], width, set)
	}
	if closed && len(pts) > 2 {
		graphics.RasterLine(pts[len(pts)-1], pts[0], width, set)
	}
}

// FillPolygon implements graphics.Graphic.
func (g *Graphic) FillPolygon(pts []graphics.Point, v graphics.Pixel) {
	g.ops++
	graphics.RasterPolygonFill(pts, g.setter(v))
}

// DrawString implements graphics.Graphic by filling the font's glyph
// cells. Only the clip is visited: a string whose rows miss it draws
// nothing, glyphs wholly left of it are skipped, and the first glyph
// starting right of it ends the string (advances are positive and ink
// never lies left of the pen). Each cell is clipped and filled whole, and
// its clipped area counted, which is exactly what setting its pixels one
// by one counts.
func (g *Graphic) DrawString(p graphics.Point, s string, f *graphics.Font, v graphics.Pixel) {
	g.ops++
	c := g.clip
	if p.Y <= c.Min.Y || p.Y-f.Ascent() >= c.Max.Y {
		return
	}
	gl := f.Glyphs()
	if gl == nil {
		renderString(p, s, f, g.setter(v))
		return
	}
	x := p.X
	for _, r := range s {
		if x >= c.Max.X {
			return
		}
		if x+gl.Right > c.Min.X {
			for _, k := range gl.Cells(r) {
				cell := graphics.Rect{
					Min: graphics.Pt(x+int(k.X0), p.Y+int(k.Y0)),
					Max: graphics.Pt(x+int(k.X1), p.Y+int(k.Y1)),
				}.Intersect(c)
				g.pixels += int64(cell.Dx()) * int64(cell.Dy())
				g.bm.Fill(cell, v)
			}
		}
		x += f.RuneWidth(r)
	}
}

func renderString(p graphics.Point, s string, f *graphics.Font, set func(x, y int)) {
	x := p.X
	for _, r := range s {
		w := f.RuneWidth(r)
		graphics.RasterGlyph(r, x, p.Y, w, f.Ascent(), f.Desc.Style, set)
		x += w
	}
}

// DrawBitmap implements graphics.Graphic.
func (g *Graphic) DrawBitmap(dst graphics.Point, bm *graphics.Bitmap) {
	g.ops++
	for y := 0; y < bm.H; y++ {
		for x := 0; x < bm.W; x++ {
			g.set(dst.X+x, dst.Y+y, bm.At(x, y))
		}
	}
}

// CopyArea implements graphics.Graphic. Overlap-safe via an intermediate
// copy, which is how the ITC window manager implemented scrolling too.
func (g *Graphic) CopyArea(src graphics.Rect, dst graphics.Point) {
	g.ops++
	src = src.Intersect(g.bm.Bounds())
	tmp := graphics.NewBitmap(src.Dx(), src.Dy())
	tmp.Blit(graphics.Pt(0, 0), g.bm, src)
	for y := 0; y < tmp.H; y++ {
		for x := 0; x < tmp.W; x++ {
			g.set(dst.X+x, dst.Y+y, tmp.At(x, y))
		}
	}
}

// InvertArea implements graphics.Graphic.
func (g *Graphic) InvertArea(r graphics.Rect) {
	g.ops++
	c := r.Intersect(g.clip)
	g.pixels += int64(c.Dx()) * int64(c.Dy())
	g.bm.Invert(c)
}

// Flush implements graphics.Graphic; memory surfaces need no flushing.
func (g *Graphic) Flush() error { return nil }

// FlushRegion implements graphics.Graphic. Memory surfaces need no
// flushing either; the region is recorded so tests can observe what the
// damage pipeline would have pushed to a real display.
func (g *Graphic) FlushRegion(reg graphics.Region) error {
	g.lastFlush = reg
	return nil
}
