package datastream

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// refLine is one result of refLogical: a logical line, or the error that
// ends the read, with the physical lines read by then.
type refLine struct {
	text  string
	err   error // nil, io.EOF, ErrNoNewline, io.ErrUnexpectedEOF, ErrLimit or ErrSyntax
	lines int
}

// refLogical is the reference a LineReader is held to: it splits the
// whole input on '\n' and decodes it with DecodeAppend, refusing a
// physical line longer than maxLine and a logical line longer than
// limit. The last result ends the read.
func refLogical(data []byte, maxLine, limit int) []refLine {
	phys := bytes.Split(data, []byte("\n"))
	torn := len(phys[len(phys)-1]) > 0 // a final line without a newline
	if !torn {
		phys = phys[:len(phys)-1]
	}
	var out []refLine
	n := 0
	for n < len(phys) {
		var dec []byte
		for {
			if len(phys[n]) > maxLine {
				return append(out, refLine{err: ErrLimit, lines: n})
			}
			var cont bool
			var err error
			dec, cont, err = DecodeAppend(dec, phys[n])
			n++
			switch {
			case err != nil:
				return append(out, refLine{err: ErrSyntax, lines: n})
			case len(dec) > limit:
				return append(out, refLine{err: ErrLimit, lines: n})
			case !cont && torn && n == len(phys):
				return append(out, refLine{text: string(dec), err: ErrNoNewline, lines: n})
			case cont && n == len(phys):
				return append(out, refLine{text: string(dec), err: io.ErrUnexpectedEOF, lines: n})
			}
			if !cont {
				break
			}
		}
		out = append(out, refLine{text: string(dec), lines: n})
	}
	return append(out, refLine{err: io.EOF, lines: n})
}

// sameError reports whether got is the error want stands for.
func sameError(got, want error) bool {
	switch want {
	case nil, io.EOF, ErrNoNewline, io.ErrUnexpectedEOF:
		return got == want
	}
	return errors.Is(got, want)
}

// FuzzLineReader holds a LineReader over the smallest buffer bufio
// allows (16 bytes, so most lines overflow it) to refLogical: the same
// logical lines, the same report of a missing final newline, the same
// errors, and the same count of physical lines.
func FuzzLineReader(f *testing.F) {
	seeds := []string{
		// the escape table
		string(AppendEscaped(nil, "\\ \n \x00 \x7f é 💩 \t "+strings.Repeat("wrap ", 20))),
		// a line longer than the buffer
		strings.Repeat("longer than the buffer ", 4) + "\nnext\n",
		// a continuation at EOF
		"first\ncontinued \\\n",
		// a final line without a newline
		"whole\nno final newline",
		// a bad escape
		"good\nbad \\q escape\nafter\n",
		// joins, and a line over the seeds' 32-byte bound
		"wrapped \\\nover \\\nthree lines\n" + strings.Repeat("x", 40) + "\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s), uint8(32), uint16(64))
	}
	f.Fuzz(func(t *testing.T, data []byte, maxLine uint8, limit uint16) {
		want := refLogical(data, int(maxLine), int(limit))
		lr := NewLineReader(bufio.NewReaderSize(bytes.NewReader(data), 16), int(maxLine))
		for i, w := range want {
			got, err := lr.ReadLogical(int(limit))
			if !sameError(err, w.err) {
				t.Fatalf("logical line %d: err %v, want %v", i, err, w.err)
			}
			if (w.err == nil || w.err == ErrNoNewline || w.err == io.ErrUnexpectedEOF) && string(got) != w.text {
				t.Fatalf("logical line %d: %q, want %q", i, got, w.text)
			}
			if lr.Lines() != w.lines {
				t.Fatalf("after logical line %d: %d physical lines, want %d", i, lr.Lines(), w.lines)
			}
			var se *SyntaxError
			if errors.As(err, &se) && se.Line != w.lines {
				t.Fatalf("syntax error on line %d, want %d", se.Line, w.lines)
			}
		}
		if w := want[len(want)-1]; w.err == ErrNoNewline {
			if _, err := lr.ReadLogical(int(limit)); err != io.EOF {
				t.Fatalf("after the final line: %v, want EOF", err)
			}
		}
	})
}

// TestLineReaderDropsLongBuffers: a buffer that one long line grew past
// 64 KiB, a physical line longer than the bufio buffer or a long logical
// line, is not kept for the lines after it.
func TestLineReaderDropsLongBuffers(t *testing.T) {
	long := strings.Repeat("x", 100<<10)
	in := long + "\n" + string(AppendEscaped(nil, long)) + "short\n"
	lr := NewLineReader(bufio.NewReader(strings.NewReader(in)), 1<<20)
	for _, want := range []string{long, long, "short"} {
		got, err := lr.ReadLogical(1 << 20)
		if err != nil || string(got) != want {
			t.Fatalf("read %d bytes (%v), want %d", len(got), err, len(want))
		}
	}
	if cap(lr.long) > maxKeptLine || cap(lr.dec) > maxKeptLine {
		t.Fatalf("after a short line the reader keeps %d and %d bytes", cap(lr.long), cap(lr.dec))
	}
}

// endless yields 'x' forever, counting what was read: a line that never
// ends.
type endless struct{ read int }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	e.read += len(p)
	return len(p), nil
}

// TestReaderLineBound: the document Reader's MaxLineBytes counts a line
// without its newline. A line of exactly the bound is accepted, one byte
// more is ErrLimit, and a line that never ends stops after the bound and
// at most one buffer of it.
func TestReaderLineBound(t *testing.T) {
	const bound = 256
	doc := func(n int) string {
		return "\\begindata{text,1}\n" + strings.Repeat("x", n) + "\n\\enddata{text,1}\n"
	}
	opts := Options{Limits: Limits{MaxLineBytes: bound}}
	if _, err := drain(NewReaderOptions(strings.NewReader(doc(bound)), opts)); err != io.EOF {
		t.Fatalf("line of exactly the bound: %v", err)
	}
	if _, err := drain(NewReaderOptions(strings.NewReader(doc(bound+1)), opts)); !errors.Is(err, ErrLimit) {
		t.Fatalf("line of the bound plus one: %v, want ErrLimit", err)
	}
	src := &endless{}
	if _, err := NewReader(src).Next(); !errors.Is(err, ErrLimit) {
		t.Fatalf("endless line: %v, want ErrLimit", err)
	}
	if most := DefaultLimits.MaxLineBytes + 4096; src.read > most {
		t.Fatalf("endless line: read %d bytes before failing, want at most %d", src.read, most)
	}
}
