package graphics

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// FontStyle is a bit set of typographic styles.
type FontStyle uint8

// Font style bits.
const (
	Plain FontStyle = 0
	Bold  FontStyle = 1 << iota
	Italic
	Fixed // typewriter face: all glyphs the same width
)

// String renders the style bits in external-representation form ("bi").
func (s FontStyle) String() string {
	var b strings.Builder
	if s&Bold != 0 {
		b.WriteByte('b')
	}
	if s&Italic != 0 {
		b.WriteByte('i')
	}
	if s&Fixed != 0 {
		b.WriteByte('f')
	}
	if b.Len() == 0 {
		return "r"
	}
	return b.String()
}

// ParseFontStyle parses the form produced by FontStyle.String.
func ParseFontStyle(s string) (FontStyle, error) {
	var st FontStyle
	for _, c := range s {
		switch c {
		case 'r':
		case 'b':
			st |= Bold
		case 'i':
			st |= Italic
		case 'f':
			st |= Fixed
		default:
			return 0, fmt.Errorf("graphics: bad font style %q", s)
		}
	}
	return st, nil
}

// FontDesc names a font: family, style bits and point size. This is the
// FontDesc porting class of paper §8; because our displays are simulated,
// metrics are synthesized deterministically from the description rather
// than read from a font server, so every backend agrees on layout.
type FontDesc struct {
	Family string
	Style  FontStyle
	Size   int
}

// DefaultFont is the fallback body font, the analogue of AndyType 12.
var DefaultFont = FontDesc{Family: "andy", Size: 12}

// String renders the description like "andy12b".
func (f FontDesc) String() string {
	s := f.Family + strconv.Itoa(f.Size)
	if f.Style != Plain {
		s += f.Style.String()
	}
	return s
}

// ParseFontDesc parses the form produced by FontDesc.String.
func ParseFontDesc(s string) (FontDesc, error) {
	i := 0
	for i < len(s) && (s[i] < '0' || s[i] > '9') {
		i++
	}
	j := i
	for j < len(s) && s[j] >= '0' && s[j] <= '9' {
		j++
	}
	if i == 0 || i == j {
		return FontDesc{}, fmt.Errorf("graphics: bad font description %q", s)
	}
	size, err := strconv.Atoi(s[i:j])
	if err != nil || size <= 0 {
		return FontDesc{}, fmt.Errorf("graphics: bad font size in %q", s)
	}
	style, err := ParseFontStyle(s[j:])
	if err != nil {
		return FontDesc{}, err
	}
	return FontDesc{Family: s[:i], Style: style, Size: size}, nil
}

// Font is a realized font: a description plus its metrics. Fonts are
// obtained from the cache via Open and shared across goroutines; they are
// immutable once their glyph table is built.
type Font struct {
	Desc FontDesc

	ascent  int
	descent int
	// advance per rune for the proportional synthetic face; the fixed face
	// uses cellW for everything.
	cellW int

	glyphsOnce sync.Once
	glyphs     *Glyphs
}

// Open realizes a font description. Identical descriptions return the same
// *Font, so pointer equality is a valid fast comparison in style runs.
func Open(d FontDesc) *Font {
	fontMu.Lock()
	defer fontMu.Unlock()
	if f, ok := fontCache[d]; ok {
		return f
	}
	f := &Font{
		Desc:    d,
		ascent:  (d.Size*4 + 2) / 5,
		descent: (d.Size + 4) / 5,
		cellW:   glyphAdvance(d),
	}
	fontCache[d] = f
	return f
}

func glyphAdvance(d FontDesc) int {
	w := (d.Size*3 + 2) / 5
	if d.Style&Bold != 0 {
		w++
	}
	if w < 3 {
		w = 3
	}
	return w
}

// Glyphs returns the font's glyph table, building it on first use. It is
// nil for a font too large for the table (see maxTableSize); such fonts
// draw through RasterGlyph.
func (f *Font) Glyphs() *Glyphs {
	f.glyphsOnce.Do(func() {
		if f.Desc.Size <= maxTableSize {
			f.glyphs = buildGlyphs(f)
		}
	})
	return f.glyphs
}

// Ascent returns the height above the baseline.
func (f *Font) Ascent() int { return f.ascent }

// Descent returns the depth below the baseline.
func (f *Font) Descent() int { return f.descent }

// Height returns ascent+descent, the line-to-line distance.
func (f *Font) Height() int { return f.ascent + f.descent }

// RuneWidth returns the advance of a single rune. The synthetic
// proportional face narrows a handful of thin characters and widens a few
// fat ones so layouts exercise non-uniform advances.
func (f *Font) RuneWidth(r rune) int {
	w := f.cellW
	if f.Desc.Style&Fixed != 0 {
		return w
	}
	switch r {
	case 'i', 'l', 'j', '!', '\'', '.', ',', ':', ';', '|':
		return w - w/3
	case 'm', 'w', 'M', 'W', '@':
		return w + w/2
	case ' ':
		return w - w/4
	case '\t':
		return w * 4
	}
	return w
}

// TextWidth returns the advance of s.
func (f *Font) TextWidth(s string) int {
	w := 0
	for _, r := range s {
		w += f.RuneWidth(r)
	}
	return w
}

// TextFit returns how many runes of s fit within width pixels, and the
// width actually used.
func (f *Font) TextFit(s string, width int) (n, used int) {
	for _, r := range s {
		rw := f.RuneWidth(r)
		if used+rw > width {
			return n, used
		}
		used += rw
		n++
	}
	return n, used
}

var (
	fontMu    sync.Mutex
	fontCache = map[FontDesc]*Font{}
)
