package main

import (
	"math/rand"
	"strings"

	"atk/internal/wsys"
)

// Inputs are generated from the workload seed alone. The program under
// test sees only the documents and keystrokes built here; the models below
// are fed the same keystrokes so that every expected output is computed
// apart from the program.

var vocabulary = strings.Fields(`the toolkit view data object observer window frame
scroll text table chart raster drawing equation message folder console
typescript layout update region damage style paragraph insert delete cursor
replica journal commit server client andrew campus workstation document
component class registry demand load external representation program editor`)

// genLine returns one line of lowercase words between minLen and maxLen
// characters long (no newline).
func genLine(rng *rand.Rand, minLen, maxLen int) string {
	target := minLen + rng.Intn(maxLen-minLen+1)
	var b strings.Builder
	for b.Len() < target {
		w := vocabulary[rng.Intn(len(vocabulary))]
		if b.Len()+len(w)+1 > maxLen {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(w)
	}
	return b.String()
}

// genText returns n generated lines, each newline-terminated.
func genText(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.Grow(n * 40)
	for i := 0; i < n; i++ {
		b.WriteString(genLine(rng, 20, 56))
		b.WriteByte('\n')
	}
	return b.String()
}

// maxLineRunes bounds every line the typists build, so that a line never
// wraps in a 640-pixel window and a click on a row lands on that line.
const maxLineRunes = 60

// Keystroke kinds.
const (
	keyChar      = 'c'
	keyReturn    = 'r'
	keyBackspace = 'b'
)

// key is one generated keystroke.
type key struct {
	kind byte
	r    rune
}

func (k key) event() wsys.Event {
	switch k.kind {
	case keyReturn:
		return wsys.KeyDownEvent(wsys.KeyReturn)
	case keyBackspace:
		return wsys.KeyDownEvent(wsys.KeyBackspace)
	default:
		return wsys.KeyPress(k.r)
	}
}

// gapBuf is the typing model: a plain rune sequence with a caret, held as
// the runes before the caret and the runes after it (reversed), so typing
// and short caret moves cost what they cost an editor, not a copy of the
// whole document.
type gapBuf struct {
	before []rune
	after  []rune // reversed: after[len-1] is the rune right of the caret
}

func newGapBuf(s string) *gapBuf {
	g := &gapBuf{}
	rs := []rune(s)
	g.after = make([]rune, len(rs))
	for i, r := range rs {
		g.after[len(rs)-1-i] = r
	}
	return g
}

func (g *gapBuf) len() int { return len(g.before) + len(g.after) }

// moveTo places the caret at rune offset pos.
func (g *gapBuf) moveTo(pos int) {
	for len(g.before) > pos {
		n := len(g.before) - 1
		g.after = append(g.after, g.before[n])
		g.before = g.before[:n]
	}
	for len(g.before) < pos && len(g.after) > 0 {
		n := len(g.after) - 1
		g.before = append(g.before, g.after[n])
		g.after = g.after[:n]
	}
}

func (g *gapBuf) String() string {
	rs := make([]rune, 0, g.len())
	rs = append(rs, g.before...)
	for i := len(g.after) - 1; i >= 0; i-- {
		rs = append(rs, g.after[i])
	}
	return string(rs)
}

// lineStartOf returns the offset of the start of line n (0-based).
func (g *gapBuf) lineStartOf(n int) int {
	if n == 0 {
		return 0
	}
	seen := 0
	for i, r := range g.before {
		if r == '\n' {
			seen++
			if seen == n {
				return i + 1
			}
		}
	}
	for i := len(g.after) - 1; i >= 0; i-- {
		if g.after[i] == '\n' {
			seen++
			if seen == n {
				return len(g.before) + (len(g.after) - i)
			}
		}
	}
	return g.len()
}

// lineEndOf returns the offset of the end of line n (0-based): the offset
// of its newline, or the end of the text.
func (g *gapBuf) lineEndOf(n int) int {
	pos := g.lineStartOf(n)
	for pos < g.len() && g.at(pos) != '\n' {
		pos++
	}
	return pos
}

// at returns the rune at offset pos.
func (g *gapBuf) at(pos int) rune {
	if pos < len(g.before) {
		return g.before[pos]
	}
	return g.after[len(g.after)-1-(pos-len(g.before))]
}

// lineLenAtCaret is the length of the line holding the caret.
func (g *gapBuf) lineLenAtCaret() int {
	n := 0
	for i := len(g.before) - 1; i >= 0 && g.before[i] != '\n'; i-- {
		n++
	}
	for i := len(g.after) - 1; i >= 0 && g.after[i] != '\n'; i-- {
		n++
	}
	return n
}

// apply feeds one keystroke to the model, as a text view applies it.
func (g *gapBuf) apply(k key) {
	switch k.kind {
	case keyReturn:
		g.before = append(g.before, '\n')
	case keyBackspace:
		if n := len(g.before); n > 0 {
			g.before = g.before[:n-1]
		}
	default:
		g.before = append(g.before, k.r)
	}
}

// nextKey draws the next keystroke of a typing burst at the model's caret,
// which sits at the end of its line: mostly letters and spaces, some
// Backspaces, and a Return whenever the line grows long. A Backspace never
// joins two lines (lines stay short and unwrapped) and always deletes
// something, so every keystroke is exactly one edit.
func nextKey(rng *rand.Rand, g *gapBuf) key {
	if g.lineLenAtCaret() >= maxLineRunes {
		return key{kind: keyReturn}
	}
	x := rng.Intn(100)
	switch {
	case x < 4:
		return key{kind: keyReturn}
	case x < 20:
		if n := len(g.before); n > 0 && g.before[n-1] != '\n' {
			return key{kind: keyBackspace}
		}
	case x < 32:
		return key{kind: keyChar, r: ' '}
	}
	return key{kind: keyChar, r: rune('a' + rng.Intn(26))}
}

// typeBurst draws n keystrokes, feeding each to the model as it goes.
func typeBurst(rng *rand.Rand, g *gapBuf, n int) []key {
	keys := make([]key, n)
	for i := range keys {
		keys[i] = nextKey(rng, g)
		g.apply(keys[i])
	}
	return keys
}
