package text

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"unicode/utf8"

	"atk/internal/core"
)

// agreesWith checks every read path of d against want, the []rune
// oracle of its content: RuneAt, String, Slice, Runes, ByteLen, cursor
// sweeps in both directions, LineCount, LineStart and LineEnd; and the
// piece rule over the piece table.
func agreesWith(t *testing.T, d *Data, want []rune) bool {
	t.Helper()
	if d.Len() != len(want) {
		t.Logf("len %d != %d", d.Len(), len(want))
		return false
	}
	if !piecesKeepRule(t, d) {
		return false
	}
	for i, w := range want {
		if r, err := d.RuneAt(i); err != nil || r != w {
			t.Logf("RuneAt(%d) = %q,%v want %q", i, r, err, w)
			return false
		}
	}
	s := string(want)
	if d.String() != s || d.ByteLen() != len(s) {
		t.Logf("String %q (%d bytes), want %q", d.String(), d.ByteLen(), s)
		return false
	}
	for _, a := range []int{0, 1, len(want) / 3, len(want) / 2} {
		for _, b := range []int{a, a + 1, len(want) - 1, len(want)} {
			if a > b || b > len(want) {
				continue
			}
			if got := d.Slice(a, b); got != string(want[a:b]) {
				t.Logf("Slice(%d,%d) = %q want %q", a, b, got, string(want[a:b]))
				return false
			}
			if got := d.Runes(a, b); string(got) != string(want[a:b]) || len(got) != b-a {
				t.Logf("Runes(%d,%d) = %q want %q", a, b, string(got), string(want[a:b]))
				return false
			}
		}
	}
	c := d.Cursor(0)
	for i, w := range want {
		if r, ok := c.Next(); !ok || r != w {
			t.Logf("cursor Next(%d) = %q,%v want %q", i, r, ok, w)
			return false
		}
	}
	if _, ok := c.Next(); ok {
		t.Logf("cursor ran past end")
		return false
	}
	for i := len(want) - 1; i >= 0; i-- {
		if r, ok := c.Prev(); !ok || r != want[i] {
			t.Logf("cursor Prev(%d) = %q,%v want %q", i, r, ok, want[i])
			return false
		}
	}
	ends := make([]int, len(want)) // ends[pos]: the next newline at or after pos, or Len
	for pos, end := len(want)-1, len(want); pos >= 0; pos-- {
		if want[pos] == '\n' {
			end = pos
		}
		ends[pos] = end
	}
	lines, start := 1, 0
	for pos := 0; pos <= len(want); pos++ {
		if pos > 0 && d.LineStart(pos) != start {
			t.Logf("LineStart(%d) = %d want %d", pos, d.LineStart(pos), start)
			return false
		}
		if pos < len(want) && d.LineEnd(pos) != ends[pos] {
			t.Logf("LineEnd(%d) = %d want %d", pos, d.LineEnd(pos), ends[pos])
			return false
		}
		if pos < len(want) && want[pos] == '\n' {
			lines++
			start = pos + 1
		}
	}
	if d.LineCount() != lines {
		t.Logf("LineCount = %d want %d", d.LineCount(), lines)
		return false
	}
	return true
}

// piecesKeepRule checks that every piece is valid UTF-8 whose rune count
// is its length in the index, and is ASCII or at most maxMixed bytes.
func piecesKeepRule(t *testing.T, d *Data) bool {
	t.Helper()
	if d.pieces.Total() != d.length {
		t.Logf("pieces hold %d runes, length %d", d.pieces.Total(), d.length)
		return false
	}
	for it := d.pieces.At(0); it.Ok(); it.Next() {
		b := d.bytesOf(it.Val())
		if len(b) == 0 || !utf8.Valid(b) || utf8.RuneCount(b) != it.Len() {
			t.Logf("piece %d: %q as %d runes", it.Index(), b, it.Len())
			return false
		}
		if len(b) != it.Len() && len(b) > maxMixed {
			t.Logf("piece %d: %d bytes of mixed text, over the bound of %d", it.Index(), len(b), maxMixed)
			return false
		}
	}
	return true
}

// oracleTexts are the texts the script inserts and streams: multi-byte
// runes, non-ASCII runs longer than a mixed piece's bound, mixed text
// with short ASCII runs, long ASCII, and invalid UTF-8.
var oracleTexts = []string{
	"a", "b", "\n", "é", "€", "𝔘", "ab\ncd", "x\xffy", "\xc0\x80", "\xe2\x82",
	"\xed\xa0\x80", "\t\\", "日本語のテキスト\n",
	strings.Repeat("é", 150),
	strings.Repeat("ü a", 100),
	strings.Repeat("x", 300),
	"caf" + strings.Repeat("é", 127),
	strings.Repeat("a", 255) + "é",
	strings.Repeat("é\n", 90) + strings.Repeat("b", 20),
}

// scriptTail delivers text in chunks whose sizes the script picks, each
// cut where ranging over the text starts a rune.
type scriptTail struct {
	rest  []byte
	sizes []byte
}

func (s *scriptTail) Next(dst []byte) ([]byte, error) {
	n := 1
	if len(s.sizes) > 0 {
		n = int(s.sizes[0])%64 + 1
		s.sizes = s.sizes[1:]
	}
	cut := len(s.rest)
	for i := range string(s.rest) {
		if i >= n {
			cut = i
			break
		}
	}
	dst = append(dst, s.rest[:cut]...)
	s.rest = s.rest[cut:]
	if len(s.rest) == 0 {
		return dst, io.EOF
	}
	return dst, nil
}
func (s *scriptTail) RemainingBytes() int { return len(s.rest) }
func (s *scriptTail) RemainingRunes() int { return utf8.RuneCount(s.rest) }
func (s *scriptTail) RemainingLines() int { return bytes.Count(s.rest, []byte("\n")) }
func (s *scriptTail) Close() error        { return nil }

// FuzzDataOracle runs a byte script of edits over a text object and its
// []rune oracle, and checks every read path against the oracle after
// each op (agreesWith). The ops: Insert (a listed text or raw script
// bytes), Delete, Backspace at the end of the last insert (which hands
// bytes back to the add buffer), Embed, Undo, Redo, Compact, and a tail
// streamed in chunks cut at arbitrary rune boundaries.
func FuzzDataOracle(f *testing.F) {
	f.Add("", []byte{0, 0, 0, 0, 1, 0, 0, 2, 2, 2, 4, 5, 6})
	f.Add("héllo wörld\n", []byte{0, 13, 3, 0, 14, 0, 2, 1, 4, 4, 5, 6, 3, 5})
	f.Add(strings.Repeat("é", 200), []byte{0, 77, 15, 1, 100, 30, 6, 0, 3, 17, 4, 5})
	f.Add("ascii start\n", []byte{7, 16, 3, 9, 2, 0, 40, 7, 7, 7, 7, 7, 0, 5, 1, 4, 5, 6})
	f.Add("a\xffb\xc0\x80c", []byte{0, 2, 7, 0, 4, 136, 3, 0xe2, 0x82, 0xff, 2, 6, 7, 130, 5, 0xf0, 0x9d, 0x94, 0x98, 0x41})
	f.Add("mixed ü text", []byte{0, 5, 18, 0, 5, 17, 2, 2, 2, 3, 3, 1, 0, 200, 6, 4, 4, 5, 5})
	f.Fuzz(func(t *testing.T, start string, script []byte) {
		if len(start) > 1000 || len(script) > 400 {
			return
		}
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		// text picks a listed text, or with the high bit set takes up to
		// 127 raw bytes of the script.
		text := func() string {
			k := next()
			if k < 128 {
				return oracleTexts[k%len(oracleTexts)]
			}
			n := min(k-128, len(script))
			s := string(script[:n])
			script = script[n:]
			return s
		}
		d := NewString(start)
		want := []rune(start)
		var undo, redo [][]rune
		edit := func(to []rune) {
			undo, redo = append(undo, want), nil
			want = to
		}
		caret := 0
		for len(script) > 0 {
			n := len(want)
			op := next() % 8
			if n > 4000 && (op == 0 || op == 7) {
				continue // keep the checks after each op cheap
			}
			switch op {
			case 0: // insert
				pos := next() % (n + 1)
				s := text()
				if err := d.Insert(pos, s); (err != nil) != strings.ContainsRune(s, AnchorRune) {
					t.Fatalf("Insert(%q): %v", s, err)
				} else if err != nil {
					continue
				}
				if s != "" {
					rs := []rune(s)
					edit(append(append(want[:pos:pos], rs...), want[pos:]...))
					caret = pos + len(rs)
				}
			case 1: // delete
				pos := next() % (n + 1)
				k := next() % (n - pos + 1)
				if err := d.Delete(pos, k); err != nil {
					t.Fatal(err)
				}
				if k > 0 {
					edit(append(want[:pos:pos], want[pos+k:]...))
				}
			case 2: // backspace at the caret the last insert left
				if caret == 0 || caret > n {
					continue
				}
				if err := d.Delete(caret-1, 1); err != nil {
					t.Fatal(err)
				}
				edit(append(want[:caret-1:caret-1], want[caret:]...))
				caret--
			case 3: // embed
				pos := next() % (n + 1)
				if err := d.Embed(pos, core.NewUnknownData("thing"), ""); err != nil {
					t.Fatal(err)
				}
				edit(append(append(want[:pos:pos], AnchorRune), want[pos:]...))
			case 4:
				if d.Undo() != (len(undo) > 0) {
					t.Fatalf("Undo with %d undoable edits", len(undo))
				}
				if len(undo) > 0 {
					redo = append(redo, want)
					want, undo = undo[len(undo)-1], undo[:len(undo)-1]
				}
			case 5:
				if d.Redo() != (len(redo) > 0) {
					t.Fatalf("Redo with %d redoable edits", len(redo))
				}
				if len(redo) > 0 {
					undo = append(undo, want)
					want, redo = redo[len(redo)-1], redo[:len(redo)-1]
				}
			case 6:
				d.Compact()
			case 7: // stream a tail onto the end, checking each chunk
				tail := text() + text()
				sizes := make([]byte, next()%8)
				for i := range sizes {
					sizes[i] = byte(next())
				}
				rs := []rune(tail)
				// Undo and redo act below the tail, so every snapshot
				// ends with it too.
				for _, stack := range [][][]rune{undo, redo} {
					for i := range stack {
						stack[i] = append(stack[i][:len(stack[i]):len(stack[i])], rs...)
					}
				}
				want = append(want[:n:n], rs...)
				d.SetTailLoader(&scriptTail{rest: []byte(tail), sizes: sizes})
				for d.Pending() {
					if err := d.LoadMore(); err != nil {
						t.Fatal(err)
					}
					if m := d.Len(); m > len(want) || d.Slice(n, m) != string(want[n:m]) ||
						!piecesKeepRule(t, d) || d.LineCount() != strings.Count(string(want[:m]), "\n")+1 {
						t.Fatalf("tail %q loaded to %d runes", tail, d.Len())
					}
				}
			}
			if !agreesWith(t, d, want) {
				t.Fatalf("diverged from the oracle")
			}
		}
	})
}

// TestPiecesFollowTheRule: ASCII is one piece however long; mixed text
// is cut into pieces near the bound, not one per accented word; and a
// long ASCII run inside mixed text keeps a piece of its own.
func TestPiecesFollowTheRule(t *testing.T) {
	mixed := strings.Repeat("café au lait, crème brûlée ", 500)
	for _, c := range []struct {
		s          string
		maxPieces  int
		wantPieces int
	}{
		{strings.Repeat("plain ascii text\n", 5000), 1, 1},
		{mixed, len(mixed)/(maxMixed-utf8.UTFMax) + 1, 0},
		{"é" + strings.Repeat("x", 100000) + "é", 3, 3},
	} {
		d := NewString(c.s)
		if !piecesKeepRule(t, d) || d.String() != c.s {
			t.Fatalf("%d bytes: pieces break the rule", len(c.s))
		}
		if n := d.PieceCount(); n > c.maxPieces || c.wantPieces > 0 && n != c.wantPieces {
			t.Fatalf("%d bytes: %d pieces, want at most %d", len(c.s), n, c.maxPieces)
		}
	}
}
