package graphics

import (
	"sync"
	"testing"
)

// scaleGlyphPixels is RasterGlyph as it scaled the 5x7 cell before the
// cell geometry was factored out: one set call per pixel of each inked
// cell. It is the reference that pins the geometry.
func scaleGlyphPixels(r rune, x, baseY, w, h int, style FontStyle, set func(x, y int)) {
	if w <= 0 || h <= 0 {
		return
	}
	g := GlyphRows(r)
	for gy := 0; gy < 7; gy++ {
		row := g[gy]
		if row == 0 {
			continue
		}
		y0 := baseY - h + gy*h/7
		y1 := baseY - h + (gy+1)*h/7
		if y1 == y0 {
			y1 = y0 + 1
		}
		shear := 0
		if style&Italic != 0 {
			shear = (6 - gy) * w / 16
		}
		for gx := 0; gx < 5; gx++ {
			if row&(1<<(4-gx)) == 0 {
				continue
			}
			x0 := x + gx*w/6 + shear
			x1 := x + (gx+1)*w/6 + shear
			if x1 == x0 {
				x1 = x0 + 1
			}
			if style&Bold != 0 {
				x1++
			}
			for py := y0; py < y1; py++ {
				for px := x0; px < x1; px++ {
					set(px, py)
				}
			}
		}
	}
}

// writes counts set calls per pixel: the metric memwin's pixel counter
// reports, overlaps included.
func writes(draw func(set func(x, y int))) map[Point]int {
	m := map[Point]int{}
	draw(func(x, y int) { m[Pt(x, y)]++ })
	return m
}

var testStyles = []FontStyle{Plain, Bold, Italic, Bold | Italic, Fixed}

func TestRasterGlyphMatchesPerPixelScaling(t *testing.T) {
	runes := []rune{'\t', '\n', 0, 'é', '€', objectRune}
	for r := rune(' '); r <= '~'; r++ {
		runes = append(runes, r)
	}
	for _, style := range testStyles {
		for _, w := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16, 24, 30} {
			for _, h := range []int{0, 1, 3, 4, 7, 9, 13, 32} {
				for _, r := range runes {
					got := writes(func(set func(x, y int)) { RasterGlyph(r, 3, 40, w, h, style, set) })
					want := writes(func(set func(x, y int)) { scaleGlyphPixels(r, 3, 40, w, h, style, set) })
					if len(got) != len(want) {
						t.Fatalf("%q w=%d h=%d style=%v: %d pixels, want %d", r, w, h, style, len(got), len(want))
					}
					for p, n := range want {
						if got[p] != n {
							t.Fatalf("%q w=%d h=%d style=%v: pixel %v written %d times, want %d", r, w, h, style, p, got[p], n)
						}
					}
				}
			}
		}
	}
}

// objectRune is the text package's anchor rune, one of the runes outside
// printable ASCII that draw the missing-glyph box.
const objectRune = '\uFFFC'

func TestFontGlyphsAreGlyphCellsAtTheFontsMetrics(t *testing.T) {
	for _, style := range testStyles {
		for size := 4; size <= 40; size++ {
			f := Open(FontDesc{Family: "andy", Style: style, Size: size})
			gl := f.Glyphs()
			for _, r := range []rune{' ', 'A', 'i', 'm', '~', '\t', '\n', 'é', objectRune} {
				var want []GlyphCell
				glyphCells(r, f.RuneWidth(r), f.Ascent(), style, func(x0, y0, x1, y1 int) {
					want = append(want, GlyphCell{int16(x0), int16(y0), int16(x1), int16(y1)})
				})
				got := gl.Cells(r)
				if len(got) != len(want) {
					t.Fatalf("%v %q: %d cells, want %d", f.Desc, r, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v %q cell %d = %v, want %v", f.Desc, r, i, got[i], want[i])
					}
					if int(want[i].X0) < 0 || int(want[i].X1) > gl.Right {
						t.Fatalf("%v %q cell %v outside [0, Right=%d)", f.Desc, r, want[i], gl.Right)
					}
				}
			}
		}
	}
}

func TestGlyphTableIsCompact(t *testing.T) {
	for _, style := range testStyles {
		f := Open(FontDesc{Family: "andy", Style: style, Size: 12})
		gl := f.Glyphs()
		if bytes := cap(gl.cells)*8 + len(gl.start)*2; bytes > 12<<10 {
			t.Errorf("%v glyph table holds %d bytes, want at most 12 KB", f.Desc, bytes)
		}
	}
	huge := Open(FontDesc{Family: "andy", Size: maxTableSize + 1})
	if huge.Glyphs() != nil {
		t.Fatal("a font past maxTableSize got a glyph table")
	}
}

func TestGlyphsBuiltOnceAcrossGoroutines(t *testing.T) {
	f := Open(FontDesc{Family: "once", Size: 17})
	var wg sync.WaitGroup
	got := make([]*Glyphs, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = f.Glyphs()
		}()
	}
	wg.Wait()
	for _, g := range got {
		if g == nil || g != got[0] {
			t.Fatal("goroutines saw different glyph tables")
		}
	}
}
