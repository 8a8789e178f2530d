package graphics

import "fmt"

// Bitmap is a rectangular grid of Pixel values. It backs memwin windows,
// off-screen windows and the raster component. The zero value is an empty
// bitmap; use NewBitmap.
type Bitmap struct {
	W, H int
	Pix  []Pixel // row-major, len == W*H
}

// NewBitmap allocates a white bitmap of the given size. Non-positive
// dimensions yield an empty bitmap.
func NewBitmap(w, h int) *Bitmap {
	if w < 0 {
		w = 0
	}
	if h < 0 {
		h = 0
	}
	return &Bitmap{W: w, H: h, Pix: make([]Pixel, w*h)}
}

// Bounds returns the bitmap's rectangle with origin (0,0).
func (b *Bitmap) Bounds() Rect { return XYWH(0, 0, b.W, b.H) }

// At returns the pixel at (x,y); out-of-range coordinates read White.
func (b *Bitmap) At(x, y int) Pixel {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return White
	}
	return b.Pix[y*b.W+x]
}

// Set writes the pixel at (x,y); out-of-range writes are discarded.
func (b *Bitmap) Set(x, y int, v Pixel) {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return
	}
	b.Pix[y*b.W+x] = v
}

// Fill sets every pixel in r (clipped to the bitmap) to v.
func (b *Bitmap) Fill(r Rect, v Pixel) {
	r = r.Intersect(b.Bounds())
	for y := r.Min.Y; y < r.Max.Y; y++ {
		row := b.Pix[y*b.W+r.Min.X : y*b.W+r.Max.X]
		if v == White { // the background is zero: clear at memory speed
			clear(row)
			continue
		}
		for i := range row {
			row[i] = v
		}
	}
}

// Clone returns a deep copy of b.
func (b *Bitmap) Clone() *Bitmap {
	c := NewBitmap(b.W, b.H)
	copy(c.Pix, b.Pix)
	return c
}

// Blit copies the src rectangle sr of s onto b at dst, clipping both ends.
func (b *Bitmap) Blit(dst Point, s *Bitmap, sr Rect) {
	sr = sr.Intersect(s.Bounds())
	for y := 0; y < sr.Dy(); y++ {
		dy := dst.Y + y
		if dy < 0 || dy >= b.H {
			continue
		}
		for x := 0; x < sr.Dx(); x++ {
			dx := dst.X + x
			if dx < 0 || dx >= b.W {
				continue
			}
			b.Pix[dy*b.W+dx] = s.Pix[(sr.Min.Y+y)*s.W+sr.Min.X+x]
		}
	}
}

// Invert flips black and white (and mirrors grays) within r.
func (b *Bitmap) Invert(r Rect) {
	r = r.Intersect(b.Bounds())
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			b.Pix[y*b.W+x] = 255 - b.Pix[y*b.W+x]
		}
	}
}

// Count returns the number of pixels in r equal to v.
func (b *Bitmap) Count(r Rect, v Pixel) int {
	r = r.Intersect(b.Bounds())
	n := 0
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			if b.Pix[y*b.W+x] == v {
				n++
			}
		}
	}
	return n
}

// Equal reports whether b and c have identical size and pixels.
func (b *Bitmap) Equal(c *Bitmap) bool {
	if b.W != c.W || b.H != c.H {
		return false
	}
	for i := range b.Pix {
		if b.Pix[i] != c.Pix[i] {
			return false
		}
	}
	return true
}

// ASCII renders the bitmap as one character per pixel for debugging and
// golden tests: '#' for black, '.' for white, '+' for anything between.
func (b *Bitmap) ASCII() string {
	out := make([]byte, 0, (b.W+1)*b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			switch v := b.Pix[y*b.W+x]; {
			case v == White:
				out = append(out, '.')
			case v == Black:
				out = append(out, '#')
			default:
				out = append(out, '+')
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}

// String implements fmt.Stringer with a compact summary.
func (b *Bitmap) String() string {
	return fmt.Sprintf("Bitmap(%dx%d, %d ink)", b.W, b.H, b.Count(b.Bounds(), Black))
}
