package datastream

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriterProducesPaperShape(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	textID, err := w.Begin("text")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteText("Dear David,"); err != nil {
		t.Fatal(err)
	}
	tableID, err := w.Begin("table")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRawLine("cells 2 2"); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if err := w.View("spread", tableID); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteText("rest of text"); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "\\begindata{text,1}\nDear David,\n\\begindata{table,2}\ncells 2 2\n" +
		"\\enddata{table,2}\n\\view{spread,2}\nrest of text\n\\enddata{text,1}\n"
	if got != want {
		t.Fatalf("stream:\n%s\nwant:\n%s", got, want)
	}
	if textID != 1 || tableID != 2 {
		t.Fatalf("ids = %d, %d", textID, tableID)
	}
}

func TestWriterEnforcesGuidelines(t *testing.T) {
	w := NewWriter(io.Discard)
	if _, err := w.Begin("text"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRawLine(strings.Repeat("x", 100)); !errors.Is(err, ErrLongLine) {
		t.Fatalf("long line err = %v", err)
	}
	w2 := NewWriter(io.Discard)
	if err := w2.WriteRawLine("caf\xc3\xa9"); !errors.Is(err, ErrNotASCII) {
		t.Fatalf("non-ascii err = %v", err)
	}
	w3 := NewWriter(io.Discard)
	if err := w3.WriteRawLine(`\begindata{fake,1}`); !errors.Is(err, ErrSyntax) {
		t.Fatalf("backslash raw line err = %v", err)
	}
}

func TestWriterNestingErrors(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.End(); !errors.Is(err, ErrBadNesting) {
		t.Fatalf("End on empty = %v", err)
	}
	w2 := NewWriter(io.Discard)
	if _, err := w2.Begin("text"); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Close with open = %v", err)
	}
}

func TestWriterRejectsBadTypeNames(t *testing.T) {
	for _, typ := range []string{"", "has space", "br{ce", "comma,name"} {
		w := NewWriter(io.Discard)
		if _, err := w.Begin(typ); !errors.Is(err, ErrSyntax) {
			t.Errorf("Begin(%q) err = %v", typ, err)
		}
	}
}

func TestWriterErrorSticks(t *testing.T) {
	w := NewWriter(io.Discard)
	_ = w.End() // provoke error
	if _, err := w.Begin("text"); err == nil {
		t.Fatal("writer continued after error")
	}
}

func TestBeginIDAdvancesAllocator(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	if err := w.BeginID("text", 7); err != nil {
		t.Fatal(err)
	}
	id, err := w.Begin("table")
	if err != nil {
		t.Fatal(err)
	}
	if id != 8 {
		t.Fatalf("next id = %d, want 8", id)
	}
}

func TestWriteTextEscapesAndWraps(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	long := strings.Repeat("abcdefghij", 20) // 200 chars, forces wrapping
	if err := w.WriteText(long + "\\" + "é"); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		if len(line) > MaxLine {
			t.Fatalf("line %d is %d chars", i, len(line))
		}
		for j := 0; j < len(line); j++ {
			if line[j] > 126 {
				t.Fatalf("non-ASCII byte on line %d", i)
			}
		}
	}
}

func roundTrip(t *testing.T, content string) string {
	t.Helper()
	var sb strings.Builder
	w := NewWriter(&sb)
	if _, err := w.Begin("text"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteText(content); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(strings.NewReader(sb.String()))
	tok, err := r.Next()
	if err != nil || tok.Kind != TokBegin {
		t.Fatalf("begin: %+v %v", tok, err)
	}
	text, err := r.CollectText()
	if err != nil {
		t.Fatal(err)
	}
	tok, err = r.Next()
	if err != nil || tok.Kind != TokEnd {
		t.Fatalf("end: %+v %v", tok, err)
	}
	return text
}

func TestRoundTripBasics(t *testing.T) {
	cases := []string{
		"",
		"hello",
		"hello\nworld",
		"trailing newline\n",
		"\n\n\n",
		"back\\slash and \\begindata{fake,9}",
		"tabs\tand\tspaces",
		"unicode: é世界",
		strings.Repeat("very long line ", 40),
	}
	for _, c := range cases {
		if got := roundTrip(t, c); got != c {
			t.Errorf("round trip %q = %q", c, got)
		}
	}
}

// Property: any string round-trips exactly through the external
// representation.
func TestQuickRoundTrip(t *testing.T) {
	f := func(s string) bool { return roundTrip(t, s) == s }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the encoded form is always 7-bit printable with short lines —
// the paper's transport guarantee.
func TestQuickEncodingIsMailSafe(t *testing.T) {
	f := func(s string) bool {
		var sb strings.Builder
		w := NewWriter(&sb)
		if err := w.WriteText(s); err != nil {
			return false
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if len(line) > MaxLine {
				return false
			}
			for i := 0; i < len(line); i++ {
				if c := line[i]; c != '\t' && (c < 32 || c > 126) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderValidatesNesting(t *testing.T) {
	bad := []string{
		"\\enddata{text,1}\n",
		"\\begindata{text,1}\n\\enddata{table,1}\n",
		"\\begindata{text,1}\n\\enddata{text,2}\n",
	}
	for _, s := range bad {
		r := NewReader(strings.NewReader(s))
		var err error
		for err == nil {
			_, err = r.Next()
		}
		if !errors.Is(err, ErrBadNesting) {
			t.Errorf("input %q: err = %v", s, err)
		}
	}
}

func TestReaderEOFWithOpenObject(t *testing.T) {
	r := NewReader(strings.NewReader("\\begindata{text,1}\nhello\n"))
	var err error
	for err == nil {
		_, err = r.Next()
	}
	if !errors.Is(err, ErrBadNesting) {
		t.Fatalf("err = %v", err)
	}
}

func TestReaderSyntaxErrors(t *testing.T) {
	bad := []string{
		"\\begindata{text}\n",    // missing id
		"\\begindata{text,xx}\n", // bad id
		"\\begindata{text,1\n",   // missing brace
		"\\view{bad type!,2}\n",  // bad type name
		"\\unknown{x,1}\n",       // unknown escape at start of payload
		"text with bad \\q escape\n",
		"\\u12",               // unterminated escape (no newline)
		"bad \\uzz; escape\n", // bad hex
		"dangling continuation\\",
	}
	for _, s := range bad {
		r := NewReader(strings.NewReader(s))
		var err error
		for err == nil {
			_, err = r.Next()
		}
		if errors.Is(err, io.EOF) {
			t.Errorf("input %q: reached clean EOF", s)
		}
	}
}

func TestSkipObjectWithoutParsing(t *testing.T) {
	// A deeply nested unknown object whose payload would crash any parser
	// that looked at it; SkipObject must pass it by on markers alone.
	var sb strings.Builder
	w := NewWriter(&sb)
	if _, err := w.Begin("text"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteText("before"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Begin("mystery"); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteText("!!! unparseable goo level !!!"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := w.End(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteText("after"); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(strings.NewReader(sb.String()))
	if _, err := r.Next(); err != nil { // begin text
		t.Fatal(err)
	}
	if txt, _ := r.CollectText(); txt != "before" {
		t.Fatalf("before = %q", txt)
	}
	tok, err := r.Next()
	if err != nil || tok.Kind != TokBegin || tok.Type != "mystery" {
		t.Fatalf("tok = %+v, %v", tok, err)
	}
	if err := r.SkipObject(tok); err != nil {
		t.Fatal(err)
	}
	if txt, _ := r.CollectText(); txt != "after" {
		t.Fatalf("after = %q", txt)
	}
	if tok, err = r.Next(); err != nil || tok.Kind != TokEnd || tok.Type != "text" {
		t.Fatalf("final tok = %+v, %v", tok, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestSkipObjectRequiresBegin(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if err := r.SkipObject(Token{Kind: TokText}); !errors.Is(err, ErrSyntax) {
		t.Fatalf("err = %v", err)
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	r := NewReader(strings.NewReader("\\begindata{text,1}\nhi\n\\enddata{text,1}\n"))
	p1, err := r.Peek()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.Peek()
	if err != nil || p1 != p2 {
		t.Fatalf("peek unstable: %+v vs %+v", p1, p2)
	}
	n, err := r.Next()
	if err != nil || n != p1 {
		t.Fatalf("next after peek = %+v", n)
	}
}

func TestViewToken(t *testing.T) {
	r := NewReader(strings.NewReader("\\view{spread,2}\n"))
	tok, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tok.Kind != TokView || tok.Type != "spread" || tok.ID != 2 {
		t.Fatalf("tok = %+v", tok)
	}
}

func TestMarkerWithSpaces(t *testing.T) {
	// The paper prints "\begindata{text, 1}" with a space; accept it.
	r := NewReader(strings.NewReader("\\begindata{text, 1}\n\\enddata{text, 1}\n"))
	tok, err := r.Next()
	if err != nil || tok.Type != "text" || tok.ID != 1 {
		t.Fatalf("tok = %+v, %v", tok, err)
	}
}

func TestReaderLineNumbers(t *testing.T) {
	r := NewReader(strings.NewReader("\\begindata{text,1}\nhello\n\\enddata{text,1}\n"))
	for i := 0; i < 3; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if r.Line() != 3 {
		t.Fatalf("line = %d", r.Line())
	}
}

func TestFinalLineWithoutNewline(t *testing.T) {
	r := NewReader(strings.NewReader("\\begindata{text,1}\nhi\n\\enddata{text,1}"))
	kinds := []TokenKind{}
	for {
		tok, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, tok.Kind)
	}
	if len(kinds) != 3 || kinds[2] != TokEnd {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestTokenKindString(t *testing.T) {
	if TokBegin.String() != "begin" || TokText.String() != "text" {
		t.Fatal("TokenKind.String wrong")
	}
	if TokenKind(42).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

// TestWriterContent: Content gives the byte range of the last top-level
// object's content, from its first text (past a nested block written
// before it) to its end marker, and the end marker's offset twice for an
// object with no text.
func TestWriterContent(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	if s, e := w.Content(); s != -1 || e != -1 {
		t.Fatalf("before any object: Content() = %d, %d", s, e)
	}
	check := func(what, startLine, endLine string) {
		t.Helper()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		s, e := w.Content()
		if s < 0 || e < s || e > int64(len(out)) ||
			!strings.HasPrefix(out[s:], startLine) || !strings.HasPrefix(out[e:], endLine) {
			t.Fatalf("%s: Content() = %d, %d in %q", what, s, e, out)
		}
	}
	if _, err := w.Begin("text"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin("textstyles"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRawLine("run 0 1 bold"); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBytes([]byte("first\nsecond")); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	check("text after styles", "first\n", "\\enddata{text,1}\n")

	if _, err := w.Begin("text"); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	check("a second, empty object", "\\enddata{text,3}\n", "\\enddata{text,3}\n")
	if s, e := w.Content(); s != e {
		t.Fatalf("empty object: Content() = %d, %d", s, e)
	}
}

// TestReaderRemaining: a reader over bytes in hand knows how many are
// left, however much of them its buffer has taken; over a stream that
// does not say, it reports none.
func TestReaderRemaining(t *testing.T) {
	doc := "\\begindata{text,1}\nhello\n\\enddata{text,1}\n"
	r := NewReader(strings.NewReader(doc))
	if got := r.Remaining(); got != len(doc) {
		t.Fatalf("before reading: Remaining() = %d, want %d", got, len(doc))
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Remaining(), len(doc)-len("\\begindata{text,1}\n"); got != want {
		t.Fatalf("after the begin marker: Remaining() = %d, want %d", got, want)
	}
	if got := NewReader(io.MultiReader(strings.NewReader(doc))).Remaining(); got != 0 {
		t.Fatalf("over a stream of unknown length: Remaining() = %d, want 0", got)
	}
}
