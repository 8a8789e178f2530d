package datastream

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// escapeCases is a spread of logical lines for the encoder: empty, plain,
// literal backslashes (alone and in runs), tabs, control bytes, newlines,
// multi-byte and astral runes, invalid UTF-8, and lines that wrap.
var escapeCases = []string{
	"",
	"plain ascii",
	`back\slash and \u fake escape`,
	"tabs\tand\tmore",
	"unicode: héllo wörld — ✓ 𝔘𝔫𝔦𝔠𝔬𝔡𝔢",
	strings.Repeat("x", 500),
	strings.Repeat("x", MaxLine-1),
	strings.Repeat("x", MaxLine),
	strings.Repeat(`\`, 200),
	strings.Repeat("é", 300),
	strings.Repeat("x", MaxLine-3) + "𝔘",
	"control \x01\x02\x7f bytes",
	"newline \n inside",
	"bad utf-8 \xff\xfe and a cut rune \xe2\x9c",
}

// TestEscapeLinesRoundTrip checks the encoder against the discipline and
// the decoder: every physical line is printable ASCII (plus tab) of at most MaxLine
// columns, every line but the last ends with the continuation backslash
// and decodes with cont set, and decoding restores the logical line.
func TestEscapeLinesRoundTrip(t *testing.T) {
	for _, s := range escapeCases {
		wire := AppendEscaped(nil, s)
		if !bytes.HasSuffix(wire, []byte("\n")) {
			t.Fatalf("AppendEscaped(%q) = %q lacks its final newline", s, wire)
		}
		lines := strings.Split(strings.TrimSuffix(string(wire), "\n"), "\n")
		var dec []byte
		for i, ln := range lines {
			if len(ln) > MaxLine {
				t.Fatalf("%q: line %d is %d chars", s, i, len(ln))
			}
			for j := 0; j < len(ln); j++ {
				if c := ln[j]; c != '\t' && (c < 32 || c > 126) {
					t.Fatalf("%q: non-ASCII byte %#x in line %d", s, c, i)
				}
			}
			// A continuation is the odd backslash out at the end of the
			// line: literal backslashes come in pairs.
			last := i == len(lines)-1
			if trail := len(ln) - len(strings.TrimRight(ln, `\`)); (trail%2 == 1) == last {
				t.Fatalf("%q: line %d %q has the wrong continuation flag", s, i, ln)
			}
			var cont bool
			var err error
			dec, cont, err = DecodeAppend(dec, []byte(ln))
			if err != nil {
				t.Fatalf("DecodeAppend(%q): %v", ln, err)
			}
			if cont == last {
				t.Fatalf("%q: line %d decoded cont=%v, want %v", s, i, cont, !last)
			}
		}
		// Invalid UTF-8 encodes as U+FFFD per bad byte, as []rune reads it.
		if want := string([]rune(s)); string(dec) != want {
			t.Fatalf("round trip = %q, want %q", dec, want)
		}
	}
}

// escapeLines is a reference encoder for the payload-line discipline,
// written rune by rune for clarity rather than speed: it renders one
// logical line as its physical lines, without their newlines.
func escapeLines(s string) []string {
	var lines []string
	var b strings.Builder
	col := 0
	emit := func(tok string) {
		if col+len(tok) > MaxLine-1 { // leave room for a continuation '\'
			b.WriteByte('\\')
			lines = append(lines, b.String())
			b.Reset()
			col = 0
		}
		b.WriteString(tok)
		col += len(tok)
	}
	for _, r := range s {
		switch {
		case r == '\\':
			emit(`\\`)
		case r == '\t' || (r >= 32 && r <= 126):
			emit(string(r))
		default:
			emit(fmt.Sprintf(`\u%x;`, r))
		}
	}
	return append(lines, b.String())
}

// TestAppendEscapedMatchesEscapeLines pins the byte-walking encoder to the
// reference one, so the wire form stays what it was: AppendEscaped and
// its []byte twin must produce exactly the joined escapeLines output, also
// when appending onto a prefix.
func TestAppendEscapedMatchesEscapeLines(t *testing.T) {
	for _, s := range escapeCases {
		want := strings.Join(escapeLines(s), "\n") + "\n"
		if got := string(AppendEscaped(nil, s)); got != want {
			t.Fatalf("AppendEscaped(%q) =\n%q\nwant\n%q", s, got, want)
		}
		if got := string(AppendEscapedBytes(nil, []byte(s))); got != want {
			t.Fatalf("AppendEscapedBytes(%q) =\n%q\nwant\n%q", s, got, want)
		}
		// Appending onto a prefix disturbs neither part.
		if pre := AppendEscaped([]byte("prefix|"), s); string(pre) != "prefix|"+want {
			t.Fatalf("AppendEscaped with prefix diverged for %q", s)
		}
		if pre := AppendEscapedBytes([]byte("prefix|"), []byte(s)); string(pre) != "prefix|"+want {
			t.Fatalf("AppendEscapedBytes with prefix diverged for %q", s)
		}
	}
}

// TestDecodeAppendAcceptReject pins what the decoder accepts. A \u escape
// is one or more hex digits below 2^31 and nothing else: a sign is a
// syntax error, though strconv.ParseInt would take it.
func TestDecodeAppendAcceptReject(t *testing.T) {
	cases := []struct {
		line string
		want string
		cont bool
		ok   bool
	}{
		{line: "plain", want: "plain", ok: true},
		{line: "", want: "", ok: true},
		{line: `trailing\`, want: "trailing", cont: true, ok: true},
		{line: `\`, want: "", cont: true, ok: true},
		{line: `\\`, want: `\`, ok: true},
		{line: `\\\`, want: `\`, cont: true, ok: true},
		{line: `\u41;`, want: "A", ok: true},
		{line: `\u0041;`, want: "A", ok: true},
		{line: `\u1F4A9;`, want: "💩", ok: true},
		{line: `\u1f4;`, want: "Ǵ", ok: true},
		{line: `a\u0;b`, want: "a\x00b", ok: true},
		{line: `\ud800;`, want: "\uFFFD", ok: true},
		{line: "\\u7fffffff;", want: "\uFFFD", ok: true},
		{line: "tab\there", want: "tab\there", ok: true},
		{line: `\u+41;`},
		{line: `\u-41;`},
		{line: `\u-0;`},
		{line: `\u0x41;`},
		{line: `\u;`},
		{line: `\uzz;`},
		{line: `\u41`},
		{line: `\q`},
		{line: "\\u80000000;"},
		{line: "\\uffffffff0;"},
	}
	for _, tc := range cases {
		got, cont, err := DecodeAppend(nil, []byte(tc.line))
		if (err == nil) != tc.ok {
			t.Fatalf("DecodeAppend(%q) err = %v, want ok=%v", tc.line, err, tc.ok)
		}
		if tc.ok && (string(got) != tc.want || cont != tc.cont) {
			t.Fatalf("DecodeAppend(%q) = %q cont=%v, want %q cont=%v", tc.line, got, cont, tc.want, tc.cont)
		}
		// The Reader decodes its string lines through the same decoder.
		sgot, scont, serr := decodeAppend(nil, tc.line)
		if (serr == nil) != (err == nil) || !bytes.Equal(sgot, got) || scont != cont {
			t.Fatalf("decodeAppend(string %q) = %q %v %v, []byte form = %q %v %v",
				tc.line, sgot, scont, serr, got, cont, err)
		}
	}
}

// TestReaderRejectsSignedEscape: a signed \u escape in a document payload
// is a syntax error to a strict Reader, and a lenient one drops the line
// with a diagnostic and keeps going.
func TestReaderRejectsSignedEscape(t *testing.T) {
	doc := "\\begindata{text,1}\nbefore\n\\u+41;\nafter\n\\enddata{text,1}\n"
	r := NewReader(strings.NewReader(doc))
	var err error
	for err == nil {
		_, err = r.Next()
	}
	if !errors.Is(err, ErrSyntax) {
		t.Fatalf("strict read of \\u+41; ended with %v, want ErrSyntax", err)
	}

	lr := NewReaderOptions(strings.NewReader(doc), Options{Mode: Lenient})
	var texts []string
	for {
		tok, err := lr.Next()
		if err != nil {
			break
		}
		if tok.Kind == TokText {
			texts = append(texts, tok.Text)
		}
	}
	if strings.Join(texts, "|") != "before|after" {
		t.Fatalf("lenient texts = %q, want before and after only", texts)
	}
	if d := lr.Diagnostics(); len(d) != 1 || d[0].Line != 3 {
		t.Fatalf("lenient diagnostics = %v, want one at line 3", d)
	}
}

// TestEscapeAllocatesNothing pins the encoder and decoder as
// allocation-free once the destination has room, from string and []byte
// input alike.
func TestEscapeAllocatesNothing(t *testing.T) {
	line := strings.Repeat("héllo\\w", 13) // 104 bytes: wraps, escapes, runes
	if len(line) != 104 {
		t.Fatalf("line is %d bytes", len(line))
	}
	bline := []byte(line)
	dst := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { dst = AppendEscaped(dst[:0], line) }); n != 0 {
		t.Errorf("AppendEscaped allocates %v times per line", n)
	}
	if n := testing.AllocsPerRun(100, func() { dst = AppendEscapedBytes(dst[:0], bline) }); n != 0 {
		t.Errorf("AppendEscapedBytes allocates %v times per line", n)
	}
	phys := bytes.SplitN(AppendEscaped(nil, line), []byte("\n"), 2)[0]
	sphys := string(phys)
	if n := testing.AllocsPerRun(100, func() { dst, _, _ = DecodeAppend(dst[:0], phys) }); n != 0 {
		t.Errorf("DecodeAppend allocates %v times per line", n)
	}
	if n := testing.AllocsPerRun(100, func() { dst, _, _ = decodeAppend(dst[:0], sphys) }); n != 0 {
		t.Errorf("decodeAppend(string) allocates %v times per line", n)
	}
}

// TestEscapeLinesMatchesWriter pins that the writer's payload emission is
// exactly the encoder's: a record framed with AppendEscaped stays
// byte-compatible with WriteText output, one logical line per segment.
func TestEscapeLinesMatchesWriter(t *testing.T) {
	segs := []string{"héllo — " + strings.Repeat("wide ", 40) + `\end`, "", "tab\tand 𝔘"}
	var sb strings.Builder
	w := NewWriter(&sb)
	if _, err := w.Begin("text"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteText(strings.Join(segs, "\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := "\\begindata{text,1}\n"
	for _, seg := range segs {
		want += string(AppendEscaped(nil, seg))
	}
	want += "\\enddata{text,1}\n"
	if got := sb.String(); got != want {
		t.Fatalf("writer output\n%q\nwant\n%q", got, want)
	}
}
