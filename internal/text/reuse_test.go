package text

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestBackspaceHandsRunesBackToAddBuffer: typing "abc", Backspace, "d"
// leaves one piece over an add buffer holding exactly "abd", and the
// edit history still undoes and redoes through it.
func TestBackspaceHandsRunesBackToAddBuffer(t *testing.T) {
	for _, prefix := range []string{"", "typed after this: "} {
		d := NewString(prefix)
		p := len([]rune(prefix))
		for i, s := range []string{"a", "b", "c"} {
			if err := d.Insert(p+i, s); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Delete(p+2, 1); err != nil {
			t.Fatal(err)
		}
		if err := d.Insert(p+2, "d"); err != nil {
			t.Fatal(err)
		}
		if got := d.String(); got != prefix+"abd" {
			t.Fatalf("text %q, want %q", got, prefix+"abd")
		}
		if string(d.add) != "abd" {
			t.Fatalf("add buffer %q, want %q", string(d.add), "abd")
		}
		wantPieces := 1
		if prefix != "" {
			wantPieces = 2
		}
		if d.PieceCount() != wantPieces {
			t.Fatalf("prefix %q: %d pieces, want %d", prefix, d.PieceCount(), wantPieces)
		}
		for _, want := range []string{"ab", "abc", "ab", "a", ""} {
			d.Undo()
			if got := d.String(); got != prefix+want {
				t.Fatalf("after undo: %q, want %q", got, prefix+want)
			}
		}
		for _, want := range []string{"a", "ab", "abc", "ab", "abd"} {
			d.Redo()
			if got := d.String(); got != prefix+want {
				t.Fatalf("after redo: %q, want %q", got, prefix+want)
			}
		}
	}
}

// TestDeleteKeepsAddRunesOtherPiecesUse: only a piece's tail at the end of
// the add buffer goes back; a deletion that leaves the piece's tail in
// place, or cuts a piece that is not last in the buffer, returns nothing.
func TestDeleteKeepsAddRunesOtherPiecesUse(t *testing.T) {
	d := NewString("")
	_ = d.Insert(0, "hello")
	_ = d.Insert(0, "world ") // the last add runes now open the document
	_ = d.Delete(7, 2)        // cuts inside "hello", which is not at the buffer's end
	if string(d.add) != "helloworld " || d.String() != "world hlo" {
		t.Fatalf("add %q text %q", string(d.add), d.String())
	}
	_ = d.Delete(2, 3) // the middle of "world ": its tail stays in the document
	if string(d.add) != "helloworld " || d.String() != "wo hlo" {
		t.Fatalf("add %q text %q", string(d.add), d.String())
	}
	_ = d.Delete(0, 3) // ends the piece "wo " whose runes end the buffer
	if string(d.add) != "helloworld" || d.String() != "hlo" {
		t.Fatalf("add %q text %q", string(d.add), d.String())
	}
}

// chunkTail delivers content in chunks of about chunk bytes, each cut at
// a rune boundary, recording the store's backing array before each
// delivery.
type chunkTail struct {
	d      *Data
	rest   []byte
	chunk  int
	stores map[*byte]bool
}

func (c *chunkTail) Next(dst []byte) ([]byte, error) {
	if cap(c.d.orig) > 0 {
		c.stores[&c.d.orig[:1][0]] = true
	}
	n := min(c.chunk, len(c.rest))
	for n < len(c.rest) && !utf8.RuneStart(c.rest[n]) {
		n++
	}
	dst = append(dst, c.rest[:n]...)
	c.rest = c.rest[n:]
	if len(c.rest) == 0 {
		return dst, io.EOF
	}
	return dst, nil
}
func (c *chunkTail) RemainingBytes() int { return len(c.rest) }
func (c *chunkTail) RemainingRunes() int { return utf8.RuneCount(c.rest) }
func (c *chunkTail) RemainingLines() int { return bytes.Count(c.rest, []byte("\n")) }
func (c *chunkTail) Close() error        { return nil }

// TestLoadAllReservesTheStoreOnce: LoadAll of a 200,000-line streamed
// document appends every chunk into one store sized up front.
func TestLoadAllReservesTheStoreOnce(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200000; i++ {
		fmt.Fprintf(&b, "line %d of the streamed document\n", i)
	}
	content := []byte(b.String())
	d := NewString("")
	tail := &chunkTail{d: d, rest: content, chunk: 64 << 10, stores: map[*byte]bool{}}
	d.SetTailLoader(tail)
	if err := d.LoadAll(); err != nil {
		t.Fatal(err)
	}
	tail.stores[&d.orig[:1][0]] = true
	if len(tail.stores) != 1 {
		t.Fatalf("the store was allocated %d times", len(tail.stores))
	}
	if d.Len() != len(content) || d.LineCount() != 200001 {
		t.Fatalf("loaded %d runes, %d lines", d.Len(), d.LineCount())
	}
}
