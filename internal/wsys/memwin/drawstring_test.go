package memwin

import (
	"math/rand"
	"testing"

	"atk/internal/graphics"
)

// referenceDrawString is DrawString the per-pixel way: every glyph through
// RasterGlyph, each pixel clipped and counted on its own.
func referenceDrawString(bm *graphics.Bitmap, clip graphics.Rect, p graphics.Point, s string, f *graphics.Font, v graphics.Pixel) (pixels int64) {
	x := p.X
	for _, r := range s {
		w := f.RuneWidth(r)
		graphics.RasterGlyph(r, x, p.Y, w, f.Ascent(), f.Desc.Style, func(px, py int) {
			if graphics.Pt(px, py).In(clip) {
				pixels++
				bm.Set(px, py, v)
			}
		})
		x += w
	}
	return pixels
}

var kernelRunes = []rune("AZaz09 ~!il.,mwMW@#|\t\t\n\x00\x7féü€￼")

func randomString(rng *rand.Rand) string {
	rs := make([]rune, rng.Intn(12))
	for i := range rs {
		if rng.Intn(3) == 0 {
			rs[i] = kernelRunes[rng.Intn(len(kernelRunes))]
		} else {
			rs[i] = rune(' ' + rng.Intn(95))
		}
	}
	return string(rs)
}

func TestDrawStringMatchesPerPixelReference(t *testing.T) {
	styles := []graphics.FontStyle{graphics.Plain, graphics.Bold, graphics.Italic,
		graphics.Bold | graphics.Italic, graphics.Fixed}
	rng := rand.New(rand.NewSource(1))
	const W, H = 96, 64
	for i := 0; i < 20000; i++ {
		f := graphics.Open(graphics.FontDesc{Family: "andy", Style: styles[rng.Intn(len(styles))], Size: 4 + rng.Intn(37)})
		s := randomString(rng)
		// Pens and clips range past every edge of the surface.
		p := graphics.Pt(rng.Intn(W+80)-60, rng.Intn(H+60)-10)
		clip := graphics.R(rng.Intn(W+20)-10, rng.Intn(H+20)-10, rng.Intn(W+20)-10, rng.Intn(H+20)-10)
		if rng.Intn(4) == 0 {
			clip = graphics.XYWH(0, 0, W, H)
		}
		v := graphics.Pixel(1 + rng.Intn(255))

		got := graphics.NewBitmap(W, H)
		g := NewGraphic(got)
		g.SetClip(clip)
		g.DrawString(p, s, f, v)

		want := graphics.NewBitmap(W, H)
		wantPixels := referenceDrawString(want, clip.Intersect(want.Bounds()), p, s, f, v)
		if !got.Equal(want) || g.PixelsTouched() != wantPixels {
			t.Fatalf("case %d: %v %q at %v clip %v: pixels %d, want %d; bitmaps equal: %v",
				i, f.Desc, s, p, clip, g.PixelsTouched(), wantPixels, got.Equal(want))
		}
	}
}

func TestDrawStringAllocatesNothing(t *testing.T) {
	g := NewGraphic(graphics.NewBitmap(300, 40))
	s := "tabs\there\tand non-ASCII: é€￼, past the right edge and beyond it"
	for _, style := range []graphics.FontStyle{graphics.Plain, graphics.Bold | graphics.Italic} {
		f := graphics.Open(graphics.FontDesc{Family: "andy", Style: style, Size: 12})
		g.DrawString(graphics.Pt(0, 20), s, f, graphics.Black) // builds the glyph table
		g.SetClip(graphics.XYWH(40, 0, 120, 40))
		if n := testing.AllocsPerRun(100, func() { g.DrawString(graphics.Pt(-30, 20), s, f, graphics.Black) }); n != 0 {
			t.Fatalf("%v: DrawString allocates %.1f times per call", f.Desc, n)
		}
	}
}
