package text

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// fragmented builds a buffer whose piece table has many pieces, so index
// bugs that only show up on multi-piece buffers get exercised.
func fragmented(t *testing.T, chunks ...string) *Data {
	t.Helper()
	d := NewString("")
	for _, c := range chunks {
		if err := d.Insert(d.Len(), c); err != nil {
			t.Fatal(err)
		}
	}
	// Scatter a few mid-buffer edits to split pieces further.
	for i := 1; i*7 < d.Len(); i++ {
		if err := d.Insert(i*7, "#"); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestCursorForward(t *testing.T) {
	d := fragmented(t, "hello ", "wor", "ld\nsecond ", "line\n", "third")
	want := []rune(d.String())
	c := d.Cursor(0)
	for i, w := range want {
		if c.Pos() != i {
			t.Fatalf("pos %d != %d", c.Pos(), i)
		}
		r, ok := c.Next()
		if !ok || r != w {
			t.Fatalf("Next at %d = %q,%v want %q", i, r, ok, w)
		}
	}
	if r, ok := c.Next(); ok {
		t.Fatalf("Next past end = %q,true", r)
	}
	if c.Pos() != d.Len() {
		t.Fatalf("end pos = %d", c.Pos())
	}
}

func TestCursorBackward(t *testing.T) {
	d := fragmented(t, "abc", "defg\nhi", "jkl")
	want := []rune(d.String())
	c := d.Cursor(d.Len())
	for i := len(want) - 1; i >= 0; i-- {
		r, ok := c.Prev()
		if !ok || r != want[i] {
			t.Fatalf("Prev at %d = %q,%v want %q", i, r, ok, want[i])
		}
		if c.Pos() != i {
			t.Fatalf("pos after Prev = %d want %d", c.Pos(), i)
		}
	}
	if r, ok := c.Prev(); ok {
		t.Fatalf("Prev past start = %q,true", r)
	}
}

func TestCursorSeekClamps(t *testing.T) {
	d := NewString("abcdef")
	c := d.Cursor(-5)
	if c.Pos() != 0 {
		t.Fatalf("negative seek pos = %d", c.Pos())
	}
	c.Seek(99)
	if c.Pos() != d.Len() {
		t.Fatalf("overshoot seek pos = %d", c.Pos())
	}
	c.Seek(3)
	if r, _ := c.Next(); r != 'd' {
		t.Fatalf("after seek(3) Next = %q", r)
	}
}

// TestCursorSurvivesEdits: a cursor keeps its numeric position across
// Insert/Delete/Undo/Redo and reads the post-edit content there.
func TestCursorSurvivesEdits(t *testing.T) {
	d := NewString("0123456789")
	c := d.Cursor(4)
	if r, _ := c.Next(); r != '4' {
		t.Fatalf("pre-edit = %q", r)
	}
	// c is now at 5. Insert before it: position 5 now holds 'X'+... shifted.
	if err := d.Insert(0, "XY"); err != nil { // buffer: XY0123456789
		t.Fatal(err)
	}
	if r, _ := c.Next(); r != '3' { // pos 5 of "XY0123456789"
		t.Fatalf("after insert = %q", r)
	}
	// Delete everything past 2; cursor (at 6) clamps to the new length.
	if err := d.Delete(2, d.Len()-2); err != nil { // buffer: XY
		t.Fatal(err)
	}
	if r, ok := c.Next(); ok {
		t.Fatalf("clamped cursor read %q", r)
	}
	if c.Pos() != 2 {
		t.Fatalf("clamped pos = %d", c.Pos())
	}
	if !d.Undo() { // restore 0123456789 after XY
		t.Fatal("undo failed")
	}
	c.Seek(2)
	if r, _ := c.Next(); r != '0' {
		t.Fatalf("after undo = %q", r)
	}
	if !d.Redo() {
		t.Fatal("redo failed")
	}
	if got := d.String(); got != "XY" {
		t.Fatalf("after redo = %q", got)
	}
	if r, ok := c.Next(); ok {
		t.Fatalf("cursor after redo read %q (pos %d)", r, c.Pos())
	}
}

func TestCursorIndependentCopies(t *testing.T) {
	d := NewString("abcdef")
	a := d.Cursor(0)
	b := a // value copy: independent iterator
	a.Next()
	a.Next()
	if r, _ := b.Next(); r != 'a' {
		t.Fatalf("copy advanced with original: %q", r)
	}
	if r, _ := a.Next(); r != 'c' {
		t.Fatalf("original = %q", r)
	}
}

func TestLineIndexMatchesBruteForce(t *testing.T) {
	d := fragmented(t, "one\ntwo\n", "three", "\n\nfive\n")
	edits := []struct {
		del  bool
		pos  int
		text string
		n    int
	}{
		{false, 0, "zero\n", 0},
		{false, d.Len(), "\ntail", 0},
		{true, 2, "", 3},
		{false, 5, "a\nb\nc", 0},
		{true, 0, "", 4},
	}
	check := func() {
		rs := []rune(d.String())
		nls := 0
		for _, r := range rs {
			if r == '\n' {
				nls++
			}
		}
		if got := d.LineCount(); got != nls+1 {
			t.Fatalf("LineCount = %d want %d", got, nls+1)
		}
		for pos := 0; pos <= len(rs); pos++ {
			if pos >= 1 { // LineStart's in-range domain
				want := 0
				for i := pos - 1; i >= 0; i-- {
					if rs[i] == '\n' {
						want = i + 1
						break
					}
				}
				if got := d.LineStart(pos); got != want {
					t.Fatalf("LineStart(%d) = %d want %d in %q", pos, got, want, string(rs))
				}
			}
			if pos < len(rs) { // LineEnd's in-range domain
				want := len(rs)
				for i := pos; i < len(rs); i++ {
					if rs[i] == '\n' {
						want = i
						break
					}
				}
				if got := d.LineEnd(pos); got != want {
					t.Fatalf("LineEnd(%d) = %d want %d in %q", pos, got, want, string(rs))
				}
			}
		}
	}
	check()
	for _, e := range edits {
		if e.del {
			if err := d.Delete(e.pos, e.n); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := d.Insert(e.pos, e.text); err != nil {
				t.Fatal(err)
			}
		}
		check()
	}
	d.Compact()
	check()
}

func TestLineEdgeSemanticsPreserved(t *testing.T) {
	// The legacy contract: out-of-range positions pass through unchanged.
	d := NewString("ab\ncd")
	for _, pos := range []int{-3, -1} {
		if got := d.LineStart(pos); got != pos {
			t.Fatalf("LineStart(%d) = %d", pos, got)
		}
		if got := d.LineEnd(pos); got != pos {
			t.Fatalf("LineEnd(%d) = %d", pos, got)
		}
	}
	if got := d.LineStart(d.Len() + 2); got != d.Len()+2 {
		t.Fatalf("LineStart past end = %d", got)
	}
	if got := d.LineEnd(d.Len()); got != d.Len() {
		t.Fatalf("LineEnd(len) = %d", got)
	}
	if got := d.LineStart(0); got != 0 {
		t.Fatalf("LineStart(0) = %d", got)
	}
}

func TestRunesMatchesSlice(t *testing.T) {
	d := fragmented(t, "αβγ ", "delta\n", "εζη")
	n := d.Len()
	for s := -1; s <= n+1; s++ {
		for e := s; e <= n+1; e++ {
			if got, want := string(d.Runes(s, e)), d.Slice(s, e); got != want {
				t.Fatalf("Runes(%d,%d) = %q want %q", s, e, got, want)
			}
		}
	}
}

func TestIndexMatchesStringsIndex(t *testing.T) {
	d := fragmented(t, "the quick brown fox ", "jumps over the ", "lazy dog")
	s := d.String()
	rs := []rune(s)
	pats := []string{"the", "fox", "dog", "zebra", "", "o", " the ", "g"}
	for _, pat := range pats {
		for from := 0; from <= len(rs); from++ {
			want := -1
			if pat == "" {
				want = from
			} else if i := strings.Index(string(rs[from:]), pat); i >= 0 {
				want = from + len([]rune(string(rs[from:])[:i]))
			}
			if got := d.Index(pat, from); got != want {
				t.Fatalf("Index(%q,%d) = %d want %d", pat, from, got, want)
			}
		}
	}
}

// TestIndexNoBigAllocs is the regression test for the cursor-based
// search: scanning a ~1 MB buffer must not materialize the document
// (previously Index called String(), an O(n) allocation per call).
func TestIndexNoBigAllocs(t *testing.T) {
	var sb strings.Builder
	for sb.Len() < 1<<20 {
		sb.WriteString("all work and no play makes jack a dull boy\n")
	}
	d := NewString(sb.String())
	// Fragment the piece table so this isn't the trivial one-piece case.
	for i := 1; i <= 64; i++ {
		if err := d.Insert(i*1000, "!"); err != nil {
			t.Fatal(err)
		}
	}
	d.Index("needle", 0) // prime the lazy piece index outside the measurement
	allocs := testing.AllocsPerRun(5, func() {
		if got := d.Index("needle", 0); got != -1 {
			t.Fatalf("found phantom needle at %d", got)
		}
	})
	// One small allocation for the []rune(pattern) is fine; O(n) is not.
	if allocs > 4 {
		t.Fatalf("Index allocated %v objects per run; cursor search should not materialize the buffer", allocs)
	}
}

func TestWordAtOnFragmentedBuffer(t *testing.T) {
	d := fragmented(t, "alpha beta", " gamma\n", "delta")
	s := []rune(d.String())
	isWord := func(r rune) bool {
		return r == '_' || r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z'
	}
	for pos := 0; pos < len(s); pos++ {
		ws, we := d.WordAt(pos)
		// Brute force mirror of the contract: expand backward over word
		// runes before pos and forward over word runes from pos.
		bs, be := pos, pos
		for bs > 0 && isWord(s[bs-1]) {
			bs--
		}
		for be < len(s) && isWord(s[be]) {
			be++
		}
		if ws != bs || we != be {
			t.Fatalf("WordAt(%d) = [%d,%d) want [%d,%d) in %q", pos, ws, we, bs, be, string(s))
		}
	}
}

// TestIndexesAcrossChunks checks the piece and newline indexes against a
// rune oracle on a document that spans many chunks of both: loaded in
// appended chunks the way a streamed open delivers them, then edited at
// random with single runes, multi-line pastes, and deletes that span
// chunks, and fragmented into thousands of pieces on the way.
func TestIndexesAcrossChunks(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	words := []string{"alpha ", "beta ", "gamma\n", "\n", "delta epsilon "}
	text := func(n int) string {
		var sb strings.Builder
		for range n {
			sb.WriteString(words[rnd.Intn(len(words))])
		}
		return sb.String()
	}
	d := New()
	var oracle []rune
	for range 300 {
		s := text(rnd.Intn(200))
		off := len(d.orig)
		d.orig = append(d.orig, s...)
		d.appendTail(off)
		oracle = append(oracle, []rune(s)...)
	}
	check := func(step int) {
		t.Helper()
		if got := d.String(); got != string(oracle) {
			t.Fatalf("step %d: content diverged from the oracle", step)
		}
		var starts []int // oracle line starts
		starts = append(starts, 0)
		for i, r := range oracle {
			if r == '\n' {
				starts = append(starts, i+1)
			}
		}
		if d.LineCount() != len(starts) {
			t.Fatalf("step %d: LineCount = %d, want %d", step, d.LineCount(), len(starts))
		}
		for pos := 0; pos <= len(oracle); pos++ {
			line := sort.Search(len(starts), func(i int) bool { return starts[i] > pos }) - 1
			if got := d.LineOf(pos); got != line {
				t.Fatalf("step %d: LineOf(%d) = %d, want %d", step, pos, got, line)
			}
			if pos > 0 && d.LineStart(pos) != starts[line] {
				t.Fatalf("step %d: LineStart(%d) = %d, want %d", step, pos, d.LineStart(pos), starts[line])
			}
			end := len(oracle)
			if line+1 < len(starts) {
				end = starts[line+1] - 1
			}
			if pos < len(oracle) && d.LineEnd(pos) != end {
				t.Fatalf("step %d: LineEnd(%d) = %d, want %d", step, pos, d.LineEnd(pos), end)
			}
		}
		for range 200 {
			if len(oracle) == 0 {
				break
			}
			pos := rnd.Intn(len(oracle))
			if r, _ := d.RuneAt(pos); r != oracle[pos] {
				t.Fatalf("step %d: RuneAt(%d) = %q, want %q", step, pos, r, oracle[pos])
			}
		}
	}
	check(-1)
	for step := range 2000 {
		pos := rnd.Intn(len(oracle) + 1)
		switch rnd.Intn(4) {
		case 0, 1: // a keystroke
			s := string("ab\n"[rnd.Intn(3)])
			if err := d.Insert(pos, s); err != nil {
				t.Fatal(err)
			}
			oracle = append(oracle[:pos:pos], append([]rune(s), oracle[pos:]...)...)
		case 2: // a paste
			s := text(rnd.Intn(400))
			if err := d.Insert(pos, s); err != nil {
				t.Fatal(err)
			}
			oracle = append(oracle[:pos:pos], append([]rune(s), oracle[pos:]...)...)
		case 3: // a delete, sometimes long
			n := min(rnd.Intn(2)*rnd.Intn(5000)+rnd.Intn(4), len(oracle)-pos)
			if err := d.Delete(pos, n); err != nil {
				t.Fatal(err)
			}
			oracle = append(oracle[:pos], oracle[pos+n:]...)
		}
		if step%100 == 99 {
			check(step)
		}
	}
	if d.PieceCount() < 1000 {
		t.Fatalf("only %d pieces: the edits did not fragment the buffer", d.PieceCount())
	}
}
