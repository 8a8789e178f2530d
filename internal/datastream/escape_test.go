package datastream

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
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

// writeText runs one Writer over a text object whose payload body calls
// write, and returns the output.
func writeText(t *testing.T, write func(w *Writer) error) string {
	t.Helper()
	var sb strings.Builder
	w := NewWriter(&sb)
	if _, err := w.Begin("text"); err != nil {
		t.Fatal(err)
	}
	if err := write(w); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestWriteBytesMatchesWriteText: the streaming text entry, fed a text in
// slices cut at any rune boundary (inside wrapped lines and escape runs
// included), writes exactly what WriteText writes for the whole; bytes
// that are not valid UTF-8 encode as U+FFFD, one each, as they do there.
func TestWriteBytesMatchesWriteText(t *testing.T) {
	texts := append([]string{strings.Join(escapeCases, "\n"), "a\n", "\n", strings.Repeat("é\\x", 200) + "\n",
		strings.Repeat("€", textChunk) + "\n" + strings.Repeat("a𝔘", textChunk)}, escapeCases...)
	for _, s := range texts {
		want := writeText(t, func(w *Writer) error { return w.WriteText(s) })
		b := []byte(s)
		for _, step := range []int{1, 2, 3, 7, 77, 78, 79, 1000, textChunk + 1} {
			got := writeText(t, func(w *Writer) error {
				for i := 0; i < len(b); {
					j := min(len(b), i+step)
					for j < len(b) && !utf8.RuneStart(b[j]) {
						j++
					}
					if err := w.WriteBytes(b[i:j]); err != nil {
						return err
					}
					i = j
				}
				if len(b) == 0 {
					if err := w.WriteBytes(nil); err != nil {
						return err
					}
				}
				return w.EndText()
			})
			if got != want {
				t.Fatalf("%q in slices of %d:\n got %q\nwant %q", s, step, got, want)
			}
		}
	}
	bad := []byte("a\xed\xa0\x80b\xff\xc0\x80\\\xf4\x8f\xbf\xbf\xe2\x82")
	want := writeText(t, func(w *Writer) error { return w.WriteText(string([]rune(string(bad)))) })
	if got := writeText(t, func(w *Writer) error { return w.WriteBytes(bad) }); got != want {
		t.Fatalf("invalid UTF-8:\n got %q\nwant %q", got, want)
	}
}

// TestEndTextOnlyEndsOpenText: markers end an open text, and ending text
// when none is open writes nothing.
func TestEndTextOnlyEndsOpenText(t *testing.T) {
	got := writeText(t, func(w *Writer) error {
		if err := w.EndText(); err != nil {
			return err
		}
		return w.WriteBytes([]byte("unended"))
	})
	if want := "\\begindata{text,1}\nunended\n\\enddata{text,1}\n"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestPlainRun holds plainRun to a byte loop over plain: every byte value
// at every position of a 24-byte run (so in each lane of a word, and in
// the tail), alone, behind a tab, and ahead of a second such byte, from
// several starts and ends.
func TestPlainRun(t *testing.T) {
	loop := func(s []byte, i, end int) int {
		for i < end && plain(s[i]) {
			i++
		}
		return i
	}
	base := []byte("plain words, no escapes.")
	for p := range base {
		for c := 0; c < 256; c++ {
			for _, extra := range []struct {
				at int
				c  byte
			}{{-1, 0}, {p - 1, '\t'}, {p + 1, '\\'}, {p + 3, 0x80}} {
				s := append([]byte(nil), base...)
				if extra.at >= 0 && extra.at < len(s) {
					s[extra.at] = extra.c
				}
				s[p] = byte(c)
				for _, r := range [][2]int{{0, len(s)}, {1, len(s)}, {3, 20}, {p, len(s)}} {
					if got, want := plainRun(s, r[0], r[1]), loop(s, r[0], r[1]); got != want {
						t.Fatalf("plainRun(%q, %d, %d) = %d, want %d", s, r[0], r[1], got, want)
					}
					if got, want := plainRun(string(s), r[0], r[1]), loop(s, r[0], r[1]); got != want {
						t.Fatalf("plainRun(string %q, %d, %d) = %d, want %d", s, r[0], r[1], got, want)
					}
				}
			}
		}
	}
}

// escapeByteLoop is a test-local copy of the encoder before it copied
// plain lines whole and scanned a word at a time: the byte loop over all
// of s, in both modes, with each escape token formatted by strconv as it
// was before escape formatted its own.
func escapeByteLoop(e *lineEnc, dst, s []byte, text bool) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; !plain(c) {
			r, n := rune(c), 1
			if c >= utf8.RuneSelf {
				r, n = utf8.DecodeRune(s[i:min(i+utf8.UTFMax, len(s))])
			}
			if c == '\n' && text {
				dst = e.end(dst)
			} else {
				dst = escapeStrconv(e, dst, r)
			}
			i += n
			continue
		}
		var room int
		dst, room = e.room(dst)
		j, end := i+1, min(len(s), i+room)
		for j < end && plain(s[j]) {
			j++
		}
		dst = append(dst, s[i:j]...)
		e.col += j - i
		i = j
	}
	return dst
}

// escapeStrconv is lineEnc.escape with its \uHEX; token formatted by
// strconv.
func escapeStrconv(e *lineEnc, dst []byte, r rune) []byte {
	t := []byte{'\\', '\\'}
	if r != '\\' {
		if !utf8.ValidRune(r) {
			r = utf8.RuneError
		}
		t = append(strconv.AppendInt([]byte{'\\', 'u'}, int64(r), 16), ';')
	}
	dst = e.wrap(dst, len(t))
	e.col += len(t)
	return append(dst, t...)
}

// FuzzEscapeText holds escapeBytes, in text mode and out of it, to the
// byte loop it grew from: any bytes (invalid UTF-8 included), from any
// starting column, whole or cut at rune boundaries into pieces of the
// fuzzed sizes, as a []byte or a string, must encode to the same bytes
// and leave the same column. In text mode the Writer's streaming entry,
// which cuts its input at textChunk, must write the same text; out of
// it, the encoded line must decode to the input's runes.
func FuzzEscapeText(f *testing.F) {
	x := func(n int) string { return strings.Repeat("x", n) }
	for _, seed := range []struct {
		s    string
		col  byte
		cuts []byte
	}{
		{x(77) + "\n" + x(78) + "\n" + x(79) + "\n" + x(80) + "\n", 0, nil},
		{x(77) + "\n" + x(78) + "\n" + x(79) + "\n" + x(80) + "\n", 1, []byte{78, 79}},
		{"ab\n" + x(76) + "\n", 76, nil},
		{x(77) + `\` + "\n" + x(76) + `\\` + "\n", 0, nil},
		{"tab\there, del\x7f, caf\xc3\xa9, \xff\xfe, bell\x07\n\n", 0, []byte{4, 1}},
		{"a chunk edge\nnext line\n", 0, []byte{12, 1}},
		{"a chunk edge\nnext line\n", 78, []byte{13}},
		{strings.Repeat("words on a line ", textChunk/8) + "\n" + x(20) + "\n", 0, []byte{255, 255}},
		{strings.Repeat("€", textChunk/2) + "\n", 3, []byte{2, 7}},
	} {
		f.Add([]byte(seed.s), seed.col, seed.cuts)
	}
	f.Fuzz(func(t *testing.T, data []byte, col byte, cuts []byte) {
		// Cut data into pieces of the fuzzed sizes, each moved on to the
		// next rune boundary.
		var pieces [][]byte
		for i, k := 0, 0; i < len(data); k++ {
			j := len(data)
			if k < len(cuts) {
				j = min(len(data), i+1+int(cuts[k]))
			}
			for j < len(data) && !utf8.RuneStart(data[j]) {
				j++
			}
			pieces, i = append(pieces, data[i:j]), j
		}
		start := lineEnc{col: int(col) % MaxLine}
		for _, text := range []bool{false, true} {
			we := start
			want := escapeByteLoop(&we, nil, data, text)

			e := start
			got := escapeBytes(&e, nil, data, text)
			es := start
			gotS := escapeBytes(&es, nil, string(data), text)
			ep := start
			var gotP []byte
			for _, p := range pieces {
				gotP = escapeBytes(&ep, gotP, p, text)
			}
			for _, g := range []struct {
				name string
				out  []byte
				e    lineEnc
			}{{"[]byte", got, e}, {"string", gotS, es}, {"pieces", gotP, ep}} {
				if !bytes.Equal(g.out, want) || g.e != we {
					t.Fatalf("text=%v col=%d %s: %q (col %d)\nbyte loop: %q (col %d)",
						text, start.col, g.name, g.out, g.e.col, want, we.col)
				}
			}
		}
		if start.col == 0 {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if _, err := w.Begin("text"); err != nil {
				t.Fatal(err)
			}
			for _, p := range pieces {
				if err := w.WriteBytes(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.End(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			var e lineEnc
			body := e.end(escapeByteLoop(&e, nil, data, true))
			if len(pieces) == 0 {
				body = nil // no WriteBytes call opened a text
			}
			want := "\\begindata{text,1}\n" + string(body) + "\\enddata{text,1}\n"
			if buf.String() != want {
				t.Fatalf("Writer: %q\nbyte loop: %q", buf.String(), want)
			}
		}
		wire := AppendEscapedBytes(nil, data)
		var dec []byte
		for _, ln := range bytes.SplitAfter(wire, []byte("\n")) {
			var err error
			if dec, _, err = DecodeAppend(dec, bytes.TrimSuffix(ln, []byte("\n"))); err != nil {
				t.Fatalf("decoding %q: %v", ln, err)
			}
		}
		if want := string([]rune(string(data))); string(dec) != want {
			t.Fatalf("%q decodes to %q, want %q", wire, dec, want)
		}
	})
}
