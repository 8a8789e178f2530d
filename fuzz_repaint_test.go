package atk

// FuzzRepaint is the pixel-equivalence property test for the damage-region
// repaint pipeline: the fuzzer's bytes are decoded as a script of edits
// against a compound document shown in three windows (text tree with an
// embedded spreadsheet, a standalone spreadsheet on the same table, and a
// WYSIWYG page view on the same document). After every checkpoint the
// incremental flush's framebuffer must be byte-identical to a fresh
// FullRedraw of the same tree — if damage regions ever under-cover an
// edit's visual consequences, the two diverge and the fuzzer shrinks the
// script.

import (
	"strings"
	"testing"

	"atk/internal/components"
	"atk/internal/core"
	"atk/internal/pageview"
	"atk/internal/table"
	"atk/internal/tableview"
	"atk/internal/text"
	"atk/internal/textview"
	"atk/internal/widgets"
	"atk/internal/wsys"
	"atk/internal/wsys/memwin"
)

// repaintFixture is one document + table shown in three windows.
type repaintFixture struct {
	doc *text.Data
	tbl *table.Data

	ims  []*core.InteractionManager
	wins []*memwin.Window
	tv   *textview.View
	sp   *tableview.Spread
	pv   *pageview.View
}

func newRepaintFixture(t *testing.T) *repaintFixture {
	t.Helper()
	reg, err := components.StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	ws := memwin.New()

	doc := text.NewString("Dear David,\nEnclosed is a list of our expenses \nwith a running total below.\nSincerely yours\n")
	doc.SetRegistry(reg)
	tbl := table.New(2, 3)
	tbl.SetRegistry(reg)
	_ = tbl.SetNumber(0, 0, 120)
	_ = tbl.SetNumber(0, 1, 80)
	_ = tbl.SetFormula(0, 2, "=A1+B1")
	_ = tbl.SetText(1, 0, "rent")
	_ = tbl.SetText(1, 1, "food")
	if err := doc.Embed(45, tbl, "spread"); err != nil {
		t.Fatal(err)
	}

	fx := &repaintFixture{doc: doc, tbl: tbl}
	newWin := func(title string, w, h int) (*core.InteractionManager, *memwin.Window) {
		win, err := ws.NewWindow(title, w, h)
		if err != nil {
			t.Fatal(err)
		}
		im := core.NewInteractionManager(ws, win)
		fx.ims = append(fx.ims, im)
		fx.wins = append(fx.wins, win.(*memwin.Window))
		return im, win.(*memwin.Window)
	}

	imText, _ := newWin("text", 560, 360)
	fx.tv = textview.New(reg)
	fx.tv.SetDataObject(doc)
	imText.SetChild(widgets.NewFrame(widgets.NewScrollView(fx.tv)))

	imSpread, _ := newWin("spread", 300, 150)
	fx.sp = tableview.New(reg)
	fx.sp.SetDataObject(tbl)
	imSpread.SetChild(fx.sp)

	imPage, _ := newWin("page", 560, 640)
	fx.pv = pageview.New(reg)
	fx.pv.SetDataObject(doc)
	imPage.SetChild(fx.pv)

	for _, im := range fx.ims {
		im.FullRedraw()
	}
	return fx
}

// check asserts pixel equivalence on every window: the incrementally
// flushed frame must match a full redraw of the same tree.
func (fx *repaintFixture) check(t *testing.T) {
	t.Helper()
	for i, im := range fx.ims {
		im.FlushUpdates()
		got := fx.wins[i].Snapshot()
		im.FullRedraw()
		want := fx.wins[i].Snapshot()
		if !got.Equal(want) {
			diff := 0
			for p := range got.Pix {
				if got.Pix[p] != want.Pix[p] {
					diff++
				}
			}
			t.Fatalf("window %q: incremental flush differs from full redraw (%d of %d pixels)",
				fx.wins[i].Title(), diff, len(got.Pix))
		}
	}
}

// applyOp decodes and applies one scripted operation. Operations cover
// both fine-damage paths (single-line edits, cell changes, page flips)
// and fallback paths (styles, scrolls, selections).
func (fx *repaintFixture) applyOp(op, a, b byte) {
	doc, tbl := fx.doc, fx.tbl
	rows, cols := tbl.Dims()
	pos := func(span int) int {
		if span <= 0 {
			return 0
		}
		return (int(a)<<8 | int(b)) % span
	}
	switch op % 11 {
	case 0: // insert one printable rune
		_ = doc.Insert(pos(doc.Len()+1), string(rune('a'+b%26)))
	case 1: // insert a newline (splits a line: full-relayout path)
		_ = doc.Insert(pos(doc.Len()+1), "\n")
	case 2: // delete a short run
		if doc.Len() > 0 {
			p := pos(doc.Len())
			n := 1 + int(b%3)
			if p+n > doc.Len() {
				n = doc.Len() - p
			}
			_ = doc.Delete(p, n)
		}
	case 3: // set a cell number (recalc ripples into the formula cell)
		_ = tbl.SetNumber(int(a)%rows, int(b)%cols, float64(int(a)+int(b)))
	case 4: // set a cell text
		_ = tbl.SetText(int(a)%rows, int(b)%cols, string(rune('A'+b%26)))
	case 5: // rewrite the formula
		_ = tbl.SetFormula(0, 2, "=A1+B1")
	case 6: // scroll the text view
		fx.tv.ScrollTo(int(a) % (fx.tv.Lines() + 1))
	case 7: // move the selection
		fx.tv.SetSelection(pos(doc.Len()+1), int(b)%(doc.Len()+1))
	case 8: // flip the page view
		fx.pv.SetPage(int(a) % 4)
	case 9: // restyle a range (whole-bounds fallback damage)
		p := pos(doc.Len() + 1)
		_ = doc.SetStyle(p, p+int(b%16), "title")
	case 10: // move the spreadsheet selection
		fx.sp.Select(int(a)%rows, int(b)%cols)
	}
}

func FuzzRepaint(f *testing.F) {
	// Seeds: one op per damage path, a mixed script, and a coalescing run
	// (many ops between checkpoints).
	f.Add([]byte{0, 0, 20})                              // insert mid-line
	f.Add([]byte{3, 1, 1, 255, 0, 0})                    // cell edit + checkpoint
	f.Add([]byte{1, 0, 5, 2, 0, 9, 9, 0, 30, 255, 0, 0}) // newline, delete, restyle
	f.Add([]byte{6, 2, 0, 8, 1, 0, 10, 1, 2})            // scroll, page flip, select
	f.Add([]byte{0, 0, 3, 0, 0, 60, 3, 0, 1, 4, 1, 2, 7, 0, 9, 255, 0, 0, 2, 0, 2})

	f.Fuzz(func(t *testing.T, script []byte) {
		fx := newRepaintFixture(t)
		for i := 0; i+2 < len(script); i += 3 {
			op, a, b := script[i], script[i+1], script[i+2]
			if op == 255 { // explicit checkpoint between op batches
				fx.check(t)
				continue
			}
			fx.applyOp(op, a, b)
		}
		fx.check(t)
	})
}

// FuzzRepaintWrapped is FuzzRepaint's second fixture: a 300-line document
// whose lines run 5–145 characters, so many wrap, in a 400×200 window
// with a scroll view. The text view lays out only what it shows and its
// scroll bar counts the hard lines not yet laid, so the bar's extent
// changes whenever layout reaches a wrapped line; the operations reach
// the layout outside painting (scrolling without Lines, moving the caret
// far off screen, scroll-bar clicks and thumb drags, clicks in the text,
// RevealDot) as well as through edits.
func FuzzRepaintWrapped(f *testing.F) {
	f.Add([]byte("700"))                          // SetDot far below the viewport
	f.Add([]byte{4, 0, 40, 255, 0, 0, 9, 0, 0})   // ScrollTo, then RevealDot back to the top
	f.Add([]byte{7, 0, 150, 6, 190, 0, 8, 30, 9}) // thumb drag, bar click, text click
	f.Add([]byte{2, 1, 59, 3, 0, 7, 1, 0, 3, 0, 0, 1, 5, 200, 1})

	f.Fuzz(func(t *testing.T, script []byte) {
		fx := newWrappedFixture(t)
		for i := 0; i+2 < len(script); i += 3 {
			op, a, b := script[i], script[i+1], script[i+2]
			if op == 255 {
				fx.check(t)
				continue
			}
			fx.applyWrappedOp(op, a, b)
		}
		fx.check(t)
	})
}

const wrappedW, wrappedH = 400, 200

var fixtureWords = strings.Fields("the andrew toolkit lays out multi font text with " +
	"wrapping and embeds components such as tables equations rasters and animations " +
	"inside a document view")

// newWrappedFixture builds FuzzRepaintWrapped's window. The document is
// the same every run: line lengths come from a fixed linear congruential
// sequence.
func newWrappedFixture(t *testing.T) *repaintFixture {
	t.Helper()
	reg, err := components.StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	seed := uint32(1)
	for i := 0; i < 300; i++ {
		seed = seed*1664525 + 1013904223
		n := 5 + int(seed>>8)%141
		var ln strings.Builder
		for k := i; ln.Len() < n; k++ {
			ln.WriteString(fixtureWords[k%len(fixtureWords)])
			ln.WriteByte(' ')
		}
		b.WriteString(ln.String()[:n])
		b.WriteByte('\n')
	}
	doc := text.NewString(b.String())
	doc.SetRegistry(reg)

	ws := memwin.New()
	win, err := ws.NewWindow("wrapped", wrappedW, wrappedH)
	if err != nil {
		t.Fatal(err)
	}
	im := core.NewInteractionManager(ws, win)
	fx := &repaintFixture{doc: doc, ims: []*core.InteractionManager{im},
		wins: []*memwin.Window{win.(*memwin.Window)}}
	fx.tv = textview.New(reg)
	fx.tv.SetDataObject(doc)
	im.SetChild(widgets.NewScrollView(fx.tv))
	im.FullRedraw()
	return fx
}

// applyWrappedOp decodes and applies one FuzzRepaintWrapped operation.
func (fx *repaintFixture) applyWrappedOp(op, a, b byte) {
	doc, tv, im := fx.doc, fx.tv, fx.ims[0]
	pos := func(span int) int { return (int(a)<<8 | int(b)) % span }
	click := func(x, y int) {
		im.HandleEvent(wsys.Click(x, y))
		im.HandleEvent(wsys.Release(x, y))
	}
	switch op % 10 {
	case 0: // insert one printable rune
		_ = doc.Insert(pos(doc.Len()+1), string(rune('a'+b%26)))
	case 1: // insert a newline
		_ = doc.Insert(pos(doc.Len()+1), "\n")
	case 2: // insert up to 60 words, enough to wrap over several rows
		ws := make([]string, 1+int(b)%60)
		for i := range ws {
			ws[i] = fixtureWords[(int(a)+i)%len(fixtureWords)]
		}
		_ = doc.Insert(int(a)*97%(doc.Len()+1), strings.Join(ws, " "))
	case 3: // delete a short run
		if doc.Len() > 0 {
			p := pos(doc.Len())
			_ = doc.Delete(p, min(1+int(b%3), doc.Len()-p))
		}
	case 4: // scroll without ever asking for the line count
		tv.ScrollTo(pos(700))
	case 5: // move the caret anywhere, usually far off screen
		tv.SetDot(pos(doc.Len() + 1))
	case 6: // click the scroll bar: page up or down, or grab the thumb
		click(widgets.ScrollBarWidth/2, int(a)%wrappedH)
	case 7: // drag the thumb from its top to row b
		total, top, vis := tv.ScrollInfo()
		y := 0
		if total > vis {
			y = min(top*wrappedH/total, wrappedH-6) + 2
		}
		im.HandleEvent(wsys.Click(widgets.ScrollBarWidth/2, y))
		im.HandleEvent(wsys.Drag(widgets.ScrollBarWidth/2, int(b)%wrappedH))
		im.HandleEvent(wsys.Release(widgets.ScrollBarWidth/2, int(b)%wrappedH))
	case 8: // click in the text
		click(widgets.ScrollBarWidth+int(a)%(wrappedW-widgets.ScrollBarWidth), int(b)%wrappedH)
	case 9:
		tv.RevealDot()
	}
}
