package textview

import (
	"strings"

	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/datastream"
	"atk/internal/graphics"
	"atk/internal/text"
	"atk/internal/wsys"
)

// Hit implements core.View. Events over an embedded component are offered
// to its view first — the text view needs no knowledge of the component's
// type, only of where it placed it. Everything else moves the caret or
// extends the selection.
func (v *View) Hit(a wsys.MouseAction, p graphics.Point, clicks int) core.View {
	v.ensureViewport()
	if !v.dragging {
		for e, r := range v.rects {
			if p.In(r) {
				if cv := v.childView(e); cv != nil {
					if got := cv.Hit(a, p.Sub(r.Min), clicks); got != nil {
						return got
					}
				}
			}
		}
	}
	pos := v.posAt(p)
	switch a {
	case wsys.MouseDown:
		if clicks >= 2 {
			if td := v.Text(); td != nil {
				s, e := td.WordAt(pos)
				v.SetSelection(s, e)
			}
		} else {
			v.dot, v.mark = pos, pos
			v.dragging = true
		}
		v.WantInputFocus(v.Self())
	case wsys.MouseMove:
		if v.dragging {
			v.dot = pos
		}
	case wsys.MouseUp:
		v.dragging = false
	}
	v.PostCursor(wsys.CursorIBeam)
	v.WantUpdate(v.Self())
	return v.Self()
}

// Key implements core.View: the editing keymap.
func (v *View) Key(ev wsys.Event) bool {
	td := v.Text()
	if td == nil {
		return false
	}
	selStart, selEnd := v.Selection()
	hasSel := selStart < selEnd

	switch {
	case ev.Key == wsys.KeyLeft:
		v.SetDot(v.dot - 1)
	case ev.Key == wsys.KeyRight:
		v.SetDot(v.dot + 1)
	case ev.Key == wsys.KeyUp, ev.Key == wsys.KeyDown:
		v.moveVertically(ev.Key == wsys.KeyDown)
	case ev.Key == wsys.KeyHome:
		v.SetDot(td.LineStart(v.dot))
	case ev.Key == wsys.KeyEnd:
		v.SetDot(td.LineEnd(v.dot))
	case ev.Key == wsys.KeyPageUp:
		v.ScrollTo(v.topLine - v.visibleLines() + 1)
	case ev.Key == wsys.KeyPageDown:
		v.ScrollTo(v.topLine + v.visibleLines() - 1)
	case ev.Key == wsys.KeyBackspace:
		if v.readOnly {
			return true
		}
		if hasSel {
			_ = td.Delete(selStart, selEnd-selStart)
		} else if v.dot > 0 {
			_ = td.Delete(v.dot-1, 1)
		}
		v.RevealDot()
	case ev.Key == wsys.KeyDelete:
		if v.readOnly {
			return true
		}
		if hasSel {
			_ = td.Delete(selStart, selEnd-selStart)
		} else if v.dot < td.Len() {
			_ = td.Delete(v.dot, 1)
		}
	case ev.Key == wsys.KeyReturn:
		v.insert("\n")
	case ev.Key == wsys.KeyTab:
		v.insert("\t")
	case ev.Ctrl && ev.Rune != 0:
		return v.controlKey(ev.Rune)
	case ev.Rune != 0:
		v.insert(string(ev.Rune))
	default:
		return false
	}
	return true
}

// insert replaces the selection (if any) with s at the caret.
func (v *View) insert(s string) {
	if v.readOnly {
		return
	}
	td := v.Text()
	selStart, selEnd := v.Selection()
	if selStart < selEnd {
		_ = td.Delete(selStart, selEnd-selStart)
	}
	if err := td.Insert(v.dot, s); err == nil {
		v.Inserted += int64(len([]rune(s)))
	}
	v.RevealDot()
}

// controlKey implements the emacs-flavored control chords the ITC users
// expected.
func (v *View) controlKey(r rune) bool {
	td := v.Text()
	switch r {
	case 'a':
		v.SetDot(td.LineStart(v.dot))
	case 'e':
		v.SetDot(td.LineEnd(v.dot))
	case 'f':
		v.SetDot(v.dot + 1)
	case 'b':
		v.SetDot(v.dot - 1)
	case 'd':
		if !v.readOnly && v.dot < td.Len() {
			_ = td.Delete(v.dot, 1)
		}
	case 'k':
		if !v.readOnly {
			end := td.LineEnd(v.dot)
			if end == v.dot && end < td.Len() {
				end++ // kill the newline itself
			}
			SetClipboard(td.Slice(v.dot, end))
			_ = td.Delete(v.dot, end-v.dot)
		}
	case 'y':
		v.Paste()
	case 'w':
		v.Cut()
	case 's':
		v.askAndSearch(true)
	case 'r':
		v.askAndSearch(false)
	case 'z':
		v.UndoEdit()
	case 'g':
		v.RedoEdit()
	default:
		return false
	}
	return true
}

// moveVertically moves the caret one layout line up or down, preserving
// the x position approximately.
func (v *View) moveVertically(down bool) {
	li := v.lineOf(v.dot)
	x := v.posToX(v.laid(li), v.dot)
	if down {
		li++
	} else {
		li--
	}
	v.ensureLine(li)
	if li < 0 || li >= v.lines.Len() {
		return
	}
	v.SetDot(v.posAtLine(li, x))
	v.RevealDot()
}

// posAtLine maps an x coordinate within line index li to a position.
func (v *View) posAtLine(li, x int) int {
	ln := v.laid(li)
	td := v.Text()
	for _, seg := range ln.segs {
		if seg.child != nil {
			if x < seg.x+seg.w/2 {
				return ln.start + seg.start
			}
			continue
		}
		cx := seg.x
		c := td.Cursor(ln.start + seg.start)
		for pos := ln.start + seg.start; pos < ln.start+seg.end; pos++ {
			r, ok := c.Next()
			if !ok {
				return pos
			}
			rw := seg.font.RuneWidth(r)
			if x < cx+rw/2 {
				return pos
			}
			cx += rw
		}
	}
	return ln.end
}

// Cut copies the selection to the clipboard and deletes it. A selection
// containing embedded components is carried as external representation,
// so the components survive the trip (ATK cut buffers were documents).
func (v *View) Cut() {
	td := v.Text()
	s, e := v.Selection()
	if s >= e || td == nil {
		return
	}
	v.copyRange(td, s, e)
	if !v.readOnly {
		_ = td.Delete(s, e-s)
	}
}

// Copy copies the selection to the clipboard (external representation
// when it contains embedded components or styles).
func (v *View) Copy() {
	td := v.Text()
	s, e := v.Selection()
	if s < e && td != nil {
		v.copyRange(td, s, e)
	}
}

func (v *View) copyRange(td *text.Data, s, e int) {
	plain := td.Slice(s, e)
	rich := strings.ContainsRune(plain, text.AnchorRune)
	if !rich {
		// Styled plain text still rides as a document so styles survive.
		for pos := s; pos < e && !rich; pos++ {
			if td.StyleAt(pos) != text.DefaultStyleName {
				rich = true
			}
		}
	}
	if !rich {
		SetClipboard(plain)
		return
	}
	ext, err := td.Extract(s, e)
	if err != nil {
		SetClipboard(plain)
		return
	}
	var sb strings.Builder
	w := datastream.NewWriter(&sb)
	if _, err := core.WriteObject(w, ext); err != nil || w.Close() != nil {
		SetClipboard(plain)
		return
	}
	SetClipboard(sb.String())
}

// Paste inserts the clipboard at the caret (replacing the selection). A
// clipboard holding an external representation is spliced in whole:
// content, styles and embedded components.
func (v *View) Paste() {
	if clipboard == "" || v.readOnly {
		return
	}
	td := v.Text()
	if td == nil {
		return
	}
	if strings.HasPrefix(clipboard, `\begindata{text,`) {
		obj, err := core.ReadObject(
			datastream.NewReader(strings.NewReader(clipboard)), v.registry())
		if err == nil {
			if src, ok := obj.(*text.Data); ok {
				if s, e := v.Selection(); s < e {
					_ = td.Delete(s, e-s)
				}
				if err := td.InsertData(v.dot, src); err == nil {
					v.RevealDot()
					return
				}
			}
		}
		// Fall through: paste the raw stream as text.
	}
	v.insert(clipboard)
}

// UndoEdit reverses the last edit to the document.
func (v *View) UndoEdit() {
	td := v.Text()
	if td == nil || v.readOnly {
		return
	}
	if !td.Undo() {
		v.PostMessage("nothing to undo")
	}
}

// RedoEdit replays the last undone edit.
func (v *View) RedoEdit() {
	td := v.Text()
	if td == nil || v.readOnly {
		return
	}
	if !td.Redo() {
		v.PostMessage("nothing to redo")
	}
}

// ApplyStyle styles the current selection.
func (v *View) ApplyStyle(name string) {
	td := v.Text()
	s, e := v.Selection()
	if td == nil || s >= e {
		v.PostMessage("no selection")
		return
	}
	if err := td.SetStyle(s, e, name); err != nil {
		v.PostMessage(err.Error())
	}
}

// PostMenus implements core.View: the text view contributes the Edit and
// Style cards, then lets its ancestors extend or veto.
func (v *View) PostMenus(ms *core.MenuSet) {
	v.ContributeMenus(ms)
	v.BaseView.PostMenus(ms)
}

// ContributeMenus adds the text view's items without climbing the tree —
// for composing views (like typescript) that wrap a text view and manage
// the upward negotiation themselves.
func (v *View) ContributeMenus(ms *core.MenuSet) {
	_ = ms.Add("Edit~20/Cut~10", v.Cut)
	_ = ms.Add("Edit~20/Copy~11", v.Copy)
	_ = ms.Add("Edit~20/Paste~12", v.Paste)
	if !v.readOnly {
		_ = ms.Add("Edit~20/Undo~13", v.UndoEdit)
		_ = ms.Add("Edit~20/Redo~14", v.RedoEdit)
	}
	_ = ms.Add("Search~22/Forward~10", func() { v.askAndSearch(true) })
	_ = ms.Add("Search~22/Backward~11", func() { v.askAndSearch(false) })
	_ = ms.Add("Search~22/Again~12", func() { v.SearchAgain() })
	if !v.readOnly {
		_ = ms.Add("Style~30/Bold~10", func() { v.ApplyStyle("bold") })
		_ = ms.Add("Style~30/Italic~11", func() { v.ApplyStyle("italic") })
		_ = ms.Add("Style~30/Plainest~12", func() { v.ApplyStyle("body") })
		_ = ms.Add("Style~30/Bigger~13", func() { v.ApplyStyle("bigger") })
		_ = ms.Add("Style~30/Title~14", func() { v.ApplyStyle("title") })
		_ = ms.Add("Style~30/Typewriter~15", func() { v.ApplyStyle("typewriter") })
	}
}

// Register installs the text view classes in reg.
func Register(reg *class.Registry) error {
	return reg.Register(class.Info{
		Name:  "textview",
		Super: "",
		New:   func() any { return New(reg) },
	})
}
