package text

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/datastream"
)

func TestEmptyBuffer(t *testing.T) {
	d := New()
	if d.Len() != 0 || d.String() != "" {
		t.Fatal("fresh buffer not empty")
	}
	if _, err := d.RuneAt(0); err == nil {
		t.Fatal("RuneAt on empty succeeded")
	}
}

func TestNewString(t *testing.T) {
	d := NewString("hello")
	if d.Len() != 5 || d.String() != "hello" {
		t.Fatalf("len=%d s=%q", d.Len(), d.String())
	}
	r, err := d.RuneAt(1)
	if err != nil || r != 'e' {
		t.Fatalf("RuneAt = %q, %v", r, err)
	}
}

func TestInsertMiddle(t *testing.T) {
	d := NewString("helo")
	if err := d.Insert(3, "l"); err != nil {
		t.Fatal(err)
	}
	if d.String() != "hello" {
		t.Fatalf("s = %q", d.String())
	}
	if err := d.Insert(0, ">> "); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(d.Len(), " <<"); err != nil {
		t.Fatal(err)
	}
	if d.String() != ">> hello <<" {
		t.Fatalf("s = %q", d.String())
	}
}

func TestInsertOutOfRange(t *testing.T) {
	d := NewString("x")
	if err := d.Insert(5, "y"); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	if err := d.Insert(-1, "y"); err == nil {
		t.Fatal("negative insert accepted")
	}
	if err := d.Insert(0, ""); err != nil {
		t.Fatal("empty insert rejected")
	}
}

func TestDelete(t *testing.T) {
	d := NewString("hello world")
	if err := d.Delete(5, 6); err != nil {
		t.Fatal(err)
	}
	if d.String() != "hello" {
		t.Fatalf("s = %q", d.String())
	}
	if err := d.Delete(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(0, 99); err == nil {
		t.Fatal("over-delete accepted")
	}
	if err := d.Delete(-1, 1); err == nil {
		t.Fatal("negative delete accepted")
	}
}

func TestDeleteAcrossPieces(t *testing.T) {
	d := NewString("abcdef")
	_ = d.Insert(3, "XYZ") // abcXYZdef
	if err := d.Delete(2, 5); err != nil {
		t.Fatal(err)
	}
	if d.String() != "abef" {
		t.Fatalf("s = %q", d.String())
	}
}

func TestSliceBoundsClamped(t *testing.T) {
	d := NewString("hello")
	if d.Slice(-3, 99) != "hello" {
		t.Fatal("clamp failed")
	}
	if d.Slice(3, 2) != "" {
		t.Fatal("inverted slice not empty")
	}
}

func TestChangeNotifications(t *testing.T) {
	d := NewString("abc")
	var got []core.Change
	obs := observerFunc(func(o core.DataObject, ch core.Change) { got = append(got, ch) })
	d.AddObserver(obs)
	_ = d.Insert(1, "xy")
	_ = d.Delete(0, 2)
	if len(got) != 2 {
		t.Fatalf("changes = %v", got)
	}
	if got[0].Kind != "insert" || got[0].Pos != 1 || got[0].Length != 2 {
		t.Fatalf("insert change = %+v", got[0])
	}
	if got[1].Kind != "delete" || got[1].Pos != 0 || got[1].Length != 2 {
		t.Fatalf("delete change = %+v", got[1])
	}
}

type observerFunc func(core.DataObject, core.Change)

func (f observerFunc) ObservedChanged(o core.DataObject, ch core.Change) { f(o, ch) }

// Property: a random edit script applied to the piece table matches the
// same script applied to a plain string.
func TestQuickEditScriptMatchesReference(t *testing.T) {
	type op struct {
		Insert bool
		Pos    uint16
		Text   string
		N      uint8
	}
	f := func(ops []op) bool {
		d := New()
		ref := []rune{}
		for _, o := range ops {
			if o.Insert {
				pos := 0
				if len(ref) > 0 {
					pos = int(o.Pos) % (len(ref) + 1)
				}
				txt := strings.ReplaceAll(o.Text, string(AnchorRune), "")
				if err := d.Insert(pos, txt); err != nil {
					return false
				}
				ref = append(ref[:pos], append([]rune(txt), ref[pos:]...)...)
			} else if len(ref) > 0 {
				pos := int(o.Pos) % len(ref)
				n := int(o.N) % (len(ref) - pos + 1)
				if err := d.Delete(pos, n); err != nil {
					return false
				}
				ref = append(ref[:pos], ref[pos+n:]...)
			}
		}
		return d.String() == string(ref) && d.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestCompact(t *testing.T) {
	d := New()
	for i := 0; i < 50; i++ {
		_ = d.Insert(d.Len()/2, "ab")
	}
	if d.PieceCount() < 10 {
		t.Fatalf("expected fragmentation, pieces = %d", d.PieceCount())
	}
	s := d.String()
	d.Compact()
	if d.PieceCount() != 1 || d.String() != s {
		t.Fatalf("compact broke buffer: pieces=%d", d.PieceCount())
	}
}

func TestEmbedAndShift(t *testing.T) {
	d := NewString("hello world")
	tbl := core.NewUnknownData("table")
	if err := d.Embed(5, tbl, "spread"); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 12 {
		t.Fatalf("len = %d", d.Len())
	}
	r, _ := d.RuneAt(5)
	if r != AnchorRune {
		t.Fatalf("anchor rune = %q", r)
	}
	e := d.EmbeddedAt(5)
	if e == nil || e.Obj != core.DataObject(tbl) || e.ViewName != "spread" {
		t.Fatalf("embedded = %+v", e)
	}
	// Inserting before the anchor shifts it.
	_ = d.Insert(0, ">>")
	if d.EmbeddedAt(7) == nil {
		t.Fatalf("anchor did not shift: %+v", d.Embeds())
	}
	// Deleting over the anchor removes the embed.
	_ = d.Delete(6, 3)
	if len(d.Embeds()) != 0 {
		t.Fatal("embed survived deletion")
	}
}

func TestEmbedErrors(t *testing.T) {
	d := NewString("ab")
	if err := d.Embed(0, nil, ""); err == nil {
		t.Fatal("nil object embedded")
	}
	if err := d.Insert(0, string(AnchorRune)); err == nil {
		t.Fatal("anchor rune inserted directly")
	}
}

func TestEmbedDefaultViewName(t *testing.T) {
	d := NewString("ab")
	u := core.NewUnknownData("music")
	if err := d.Embed(1, u, ""); err != nil {
		t.Fatal(err)
	}
	if d.Embeds()[0].ViewName != "unknownview" {
		t.Fatalf("view name = %q", d.Embeds()[0].ViewName)
	}
}

func TestWordAt(t *testing.T) {
	d := NewString("one two_three  4x")
	s, e := d.WordAt(1)
	if s != 0 || e != 3 {
		t.Fatalf("word = [%d,%d)", s, e)
	}
	s, e = d.WordAt(5)
	if d.Slice(s, e) != "two_three" {
		t.Fatalf("word = %q", d.Slice(s, e))
	}
	s, e = d.WordAt(14) // on a space
	if s != e {
		t.Fatalf("space word = [%d,%d)", s, e)
	}
}

func TestLineStartEnd(t *testing.T) {
	d := NewString("ab\ncdef\ng")
	if d.LineStart(5) != 3 || d.LineEnd(5) != 7 {
		t.Fatalf("line = [%d,%d)", d.LineStart(5), d.LineEnd(5))
	}
	if d.LineStart(0) != 0 || d.LineEnd(8) != 9 {
		t.Fatal("edges wrong")
	}
}

func TestIndex(t *testing.T) {
	d := NewString("the cat sat on the mat")
	if d.Index("at", 0) != 5 {
		t.Fatalf("first = %d", d.Index("at", 0))
	}
	if d.Index("at", 6) != 9 {
		t.Fatalf("second = %d", d.Index("at", 6))
	}
	if d.Index("dog", 0) != -1 {
		t.Fatal("missing found")
	}
	if d.Index("the", -5) != 0 {
		t.Fatal("negative from")
	}
}

// --- styles ---

func TestStyleTableDefaults(t *testing.T) {
	st := NewStyleTable()
	for _, n := range []string{"body", "bold", "italic", "title", "typewriter"} {
		if !st.Has(n) {
			t.Errorf("missing stock style %q", n)
		}
	}
	if st.Lookup("nonesuch").Name != "body" {
		t.Fatal("unknown style did not fall back to body")
	}
	if err := st.Define(StyleDef{Name: ""}); err == nil {
		t.Fatal("empty style name accepted")
	}
	if err := st.Define(StyleDef{Name: "zero", Font: NewStyleTable().Lookup("body").Font}); err != nil {
		t.Fatal(err)
	}
	names := st.Names()
	if len(names) < 5 {
		t.Fatalf("names = %v", names)
	}
}

func TestSetStyleAndStyleAt(t *testing.T) {
	d := NewString("hello world")
	if err := d.SetStyle(0, 5, "bold"); err != nil {
		t.Fatal(err)
	}
	if d.StyleAt(2) != "bold" || d.StyleAt(7) != "body" {
		t.Fatalf("styles: %q %q", d.StyleAt(2), d.StyleAt(7))
	}
	// Overlapping application splits runs.
	if err := d.SetStyle(3, 8, "italic"); err != nil {
		t.Fatal(err)
	}
	if d.StyleAt(0) != "bold" || d.StyleAt(4) != "italic" || d.StyleAt(9) != "body" {
		t.Fatalf("styles after split: %q %q %q", d.StyleAt(0), d.StyleAt(4), d.StyleAt(9))
	}
	// Setting body removes runs.
	if err := d.SetStyle(0, d.Len(), "body"); err != nil {
		t.Fatal(err)
	}
	if len(d.Runs()) != 0 {
		t.Fatalf("runs = %v", d.Runs())
	}
}

func TestSetStyleErrors(t *testing.T) {
	d := NewString("abc")
	if err := d.SetStyle(0, 99, "bold"); err == nil {
		t.Fatal("range accepted")
	}
	if err := d.SetStyle(0, 2, "nonesuch"); err == nil {
		t.Fatal("unknown style accepted")
	}
	if err := d.SetStyle(1, 1, "bold"); err != nil {
		t.Fatal("empty range rejected")
	}
}

func TestStyleRunsMerge(t *testing.T) {
	d := NewString("abcdef")
	_ = d.SetStyle(0, 2, "bold")
	_ = d.SetStyle(2, 4, "bold")
	if len(d.Runs()) != 1 || d.Runs()[0] != (Run{0, 4, "bold"}) {
		t.Fatalf("runs = %v", d.Runs())
	}
}

func TestStyleShiftOnEdit(t *testing.T) {
	d := NewString("hello world")
	_ = d.SetStyle(6, 11, "bold") // "world"
	_ = d.Insert(0, ">> ")
	if d.StyleAt(9) != "bold" || d.StyleAt(5) != "body" {
		t.Fatalf("after insert: runs = %v", d.Runs())
	}
	// Typing inside a bold run stays bold.
	_ = d.Insert(10, "XX")
	if d.StyleAt(10) != "bold" {
		t.Fatalf("inside-run insert: %v", d.Runs())
	}
	// Deleting the run's text removes the run.
	_ = d.Delete(9, 7)
	if len(d.Runs()) != 0 {
		t.Fatalf("runs after delete = %v", d.Runs())
	}
}

func TestStyleSpan(t *testing.T) {
	d := NewString("aaabbbccc")
	_ = d.SetStyle(3, 6, "bold")
	s, e, n := d.StyleSpan(0)
	if s != 0 || e != 3 || n != "body" {
		t.Fatalf("span0 = %d,%d,%s", s, e, n)
	}
	s, e, n = d.StyleSpan(4)
	if s != 3 || e != 6 || n != "bold" {
		t.Fatalf("span4 = %d,%d,%s", s, e, n)
	}
	s, e, n = d.StyleSpan(7)
	if s != 6 || e != 9 || n != "body" {
		t.Fatalf("span7 = %d,%d,%s", s, e, n)
	}
}

// --- external representation ---

func testReg(t *testing.T) *class.Registry {
	t.Helper()
	reg := class.NewRegistry()
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

func writeDoc(t *testing.T, d *Data) string {
	t.Helper()
	var sb strings.Builder
	w := datastream.NewWriter(&sb)
	if _, err := core.WriteObject(w, d); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func readDoc(t *testing.T, reg *class.Registry, s string) *Data {
	t.Helper()
	obj, err := core.ReadObject(datastream.NewReader(strings.NewReader(s)), reg)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := obj.(*Data)
	if !ok {
		t.Fatalf("got %T", obj)
	}
	return d
}

// TestDecodeAllocsPerLine: a strict decode allocates about once per
// logical line, for the token's text: the reader copies no physical
// line, Peek stores its token by value, and ReadPayload appends each
// line's runes in place. With a copy at each of those steps this
// 2,500-line, 115 KB document cost about five allocations per line.
func TestDecodeAllocsPerLine(t *testing.T) {
	const lines = 2500
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "line %04d of the decoded document, some words\n", i)
	}
	enc := writeDoc(t, NewString(sb.String()))
	reg := testReg(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := core.ReadObject(datastream.NewReader(strings.NewReader(enc)), reg); err != nil {
			t.Fatal(err)
		}
	})
	if perLine := allocs / lines; perLine >= 1.5 {
		t.Fatalf("strict decode of %d lines (%d bytes): %.2f allocations per line, want < 1.5",
			lines, len(enc), perLine)
	}
}

func TestStreamRoundTripPlain(t *testing.T) {
	reg := testReg(t)
	d := NewString("February 11, 1988\n\nDear David,\nEnclosed is a list of our expenses.\n")
	got := readDoc(t, reg, writeDoc(t, d))
	if got.String() != d.String() {
		t.Fatalf("content = %q", got.String())
	}
}

func TestStreamRoundTripStyles(t *testing.T) {
	reg := testReg(t)
	d := NewString("Title line\nbody text follows here")
	_ = d.SetStyle(0, 10, "title")
	_ = d.SetStyle(11, 15, "bold")
	_ = d.Styles().Define(StyleDef{Name: "custom", Font: d.Styles().Lookup("body").Font, Indent: 40})
	_ = d.SetStyle(16, 20, "custom")
	got := readDoc(t, reg, writeDoc(t, d))
	if got.String() != d.String() {
		t.Fatalf("content = %q", got.String())
	}
	if len(got.Runs()) != len(d.Runs()) {
		t.Fatalf("runs = %v want %v", got.Runs(), d.Runs())
	}
	if got.StyleAt(2) != "title" || got.StyleAt(12) != "bold" || got.StyleAt(17) != "custom" {
		t.Fatalf("styles lost: %v", got.Runs())
	}
	if got.Styles().Lookup("custom").Indent != 40 {
		t.Fatal("custom style definition lost")
	}
}

func TestStreamRoundTripEmbedded(t *testing.T) {
	reg := testReg(t)
	inner := NewString("I am the inner text")
	d := NewString("before  after")
	if err := d.Embed(7, inner, "textview"); err != nil {
		t.Fatal(err)
	}
	stream := writeDoc(t, d)
	if !strings.Contains(stream, "\\view{textview,") {
		t.Fatalf("no view ref:\n%s", stream)
	}
	got := readDoc(t, reg, stream)
	if got.Len() != d.Len() {
		t.Fatalf("len = %d want %d", got.Len(), d.Len())
	}
	es := got.Embeds()
	if len(es) != 1 || es[0].Pos != 7 {
		t.Fatalf("embeds = %+v", es)
	}
	in, ok := es[0].Obj.(*Data)
	if !ok || in.String() != "I am the inner text" {
		t.Fatalf("inner = %#v", es[0].Obj)
	}
}

func TestStreamNestedTextInTextInText(t *testing.T) {
	reg := testReg(t)
	level2 := NewString("deepest")
	level1 := NewString("middle ")
	_ = level1.Embed(7, level2, "")
	top := NewString("top ")
	_ = top.Embed(4, level1, "")
	got := readDoc(t, reg, writeDoc(t, top))
	l1 := got.Embeds()[0].Obj.(*Data)
	l2 := l1.Embeds()[0].Obj.(*Data)
	if l2.String() != "deepest" {
		t.Fatalf("deepest = %q", l2.String())
	}
}

func TestStreamUnknownEmbeddedPreserved(t *testing.T) {
	reg := testReg(t)
	stream := "\\begindata{text,1}\nsee the score: \n\\begindata{music,2}\nC D E F\n\\enddata{music,2}\n\\view{musicview,2}\n\\enddata{text,1}\n"
	d := readDoc(t, reg, stream)
	if len(d.Embeds()) != 1 {
		t.Fatalf("embeds = %v", d.Embeds())
	}
	u, ok := d.Embeds()[0].Obj.(*core.UnknownData)
	if !ok || u.TypeName() != "music" {
		t.Fatalf("embedded = %#v", d.Embeds()[0].Obj)
	}
	// Write it back: the music data survives verbatim.
	out := writeDoc(t, d)
	if !strings.Contains(out, "\\begindata{music,") || !strings.Contains(out, "C D E F") {
		t.Fatalf("music lost:\n%s", out)
	}
}

func TestStreamViewWithoutObject(t *testing.T) {
	reg := testReg(t)
	stream := "\\begindata{text,1}\n\\view{spread,9}\n\\enddata{text,1}\n"
	if _, err := core.ReadObject(datastream.NewReader(strings.NewReader(stream)), reg); err == nil {
		t.Fatal("dangling view accepted")
	}
}

func TestStreamBadStyleLines(t *testing.T) {
	reg := testReg(t)
	for _, styles := range []string{
		"def broken\n",
		"def a fam x r 0 0\n",
		"run 1\n",
		"run x y bold\n",
		"mystery line\n",
	} {
		stream := "\\begindata{text,1}\n\\begindata{textstyles,2}\n" + styles +
			"\\enddata{textstyles,2}\nhello\n\\enddata{text,1}\n"
		if _, err := core.ReadObject(datastream.NewReader(strings.NewReader(stream)), reg); err == nil {
			t.Errorf("bad styles %q accepted", styles)
		}
	}
}

// Property: write/read round trip preserves arbitrary content exactly.
func TestQuickStreamRoundTrip(t *testing.T) {
	reg := testReg(t)
	f := func(s string) bool {
		s = strings.ReplaceAll(s, string(AnchorRune), "")
		d := NewString(s)
		got := readDoc(t, reg, writeDoc(t, d))
		return got.String() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestEmbedAtChunkEdges(t *testing.T) {
	reg := testReg(t)
	// Anchor at position 0 and at the very end, plus adjacent anchors.
	d := NewString("mid")
	a := NewString("A")
	b := NewString("B")
	c := NewString("C")
	if err := d.Embed(0, a, ""); err != nil {
		t.Fatal(err)
	}
	if err := d.Embed(d.Len(), b, ""); err != nil {
		t.Fatal(err)
	}
	if err := d.Embed(d.Len(), c, ""); err != nil { // adjacent to b
		t.Fatal(err)
	}
	got := readDoc(t, reg, writeDoc(t, d))
	if got.Len() != d.Len() || len(got.Embeds()) != 3 {
		t.Fatalf("len=%d embeds=%d", got.Len(), len(got.Embeds()))
	}
	if got.Embeds()[0].Pos != 0 {
		t.Fatalf("first anchor at %d", got.Embeds()[0].Pos)
	}
	texts := []string{}
	for _, e := range got.Embeds() {
		texts = append(texts, e.Obj.(*Data).String())
	}
	if strings.Join(texts, "") != "ABC" {
		t.Fatalf("embedded order = %v", texts)
	}
}
