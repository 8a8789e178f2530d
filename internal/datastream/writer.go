// Package datastream implements the external representation of paper §5.
//
// A data object's persistent form is enclosed in a begin/end marker pair:
//
//	\begindata{text,1}
//	... payload lines ...
//	\begindata{table,2}
//	... the table data goes here ...
//	\enddata{table,2}
//	\view{spread,2}
//	... rest of payload ...
//	\enddata{text,1}
//
// Markers must nest properly, and it must be possible to find all the data
// associated with an object without parsing the payload (Reader.SkipObject
// relies only on the markers). The writer enforces the paper's guidelines:
// only printable 7-bit ASCII plus tab, and line lengths below 80
// characters. Payload text achieves this through a small escape scheme:
//
//	\\        a literal backslash
//	\uHEX;    any rune outside printable ASCII
//	\ at EOL  line continuation (the logical line continues, no newline)
//
// Because every literal backslash is escaped, a payload line can never
// begin with a marker, so markers are recognized unambiguously.
package datastream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Errors reported by the reader and writer.
var (
	ErrBadNesting = errors.New("datastream: begin/end markers improperly nested")
	ErrSyntax     = errors.New("datastream: malformed input")
	ErrLongLine   = errors.New("datastream: raw line exceeds 79 characters")
	ErrNotASCII   = errors.New("datastream: raw line contains non-printable or non-ASCII bytes")
	ErrOpen       = errors.New("datastream: stream closed with open objects")
)

// MaxLine is the maximum encoded line length, per the paper's "keep line
// lengths below 80 characters" guideline.
const MaxLine = 79

// Writer emits external representations. Create with NewWriter; call Close
// to verify all begun objects were ended.
type Writer struct {
	bw     *bufio.Writer
	nextID int
	stack  []openObj
	err    error

	// The open text of the streaming text entry (WriteBytes, WriteText,
	// EndText): its current physical line, and the escape buffer reused
	// across calls.
	text   lineEnc
	inText bool
	line   []byte
}

type openObj struct {
	typ string
	id  int
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w), nextID: 1}
}

// Begin opens a new object of the given type and returns its stream ID.
func (w *Writer) Begin(typ string) (int, error) {
	id := w.nextID
	w.nextID++
	if err := w.BeginID(typ, id); err != nil {
		return 0, err
	}
	return id, nil
}

// BeginID opens an object with a caller-chosen ID. IDs need only be unique
// enough for \view references within the enclosing stream; the caller is
// responsible for that when choosing its own.
func (w *Writer) BeginID(typ string, id int) error {
	if err := w.EndText(); err != nil {
		return err
	}
	if err := checkTypeName(typ); err != nil {
		w.err = err
		return err
	}
	if id >= w.nextID {
		w.nextID = id + 1
	}
	// Marker lines cannot be wrapped with continuations (readers recognize
	// them by physical-line prefix), so a type name that would push the
	// marker past MaxLine is rejected outright. The \enddata form is two
	// characters shorter, so checking the begindata form covers both.
	marker := fmt.Sprintf("\\begindata{%s,%d}", typ, id)
	if len(marker) > MaxLine {
		w.err = fmt.Errorf("%w: marker %q is %d chars; type name too long", ErrLongLine, marker, len(marker))
		return w.err
	}
	w.stack = append(w.stack, openObj{typ, id})
	_, err := fmt.Fprintf(w.bw, "%s\n", marker)
	return w.keep(err)
}

// End closes the most recently begun object.
func (w *Writer) End() error {
	if err := w.EndText(); err != nil {
		return err
	}
	if len(w.stack) == 0 {
		w.err = fmt.Errorf("%w: End with no open object", ErrBadNesting)
		return w.err
	}
	top := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	_, err := fmt.Fprintf(w.bw, "\\enddata{%s,%d}\n", top.typ, top.id)
	return w.keep(err)
}

// View emits a \view{type,id} reference: "a view of the given type is
// placed here, displaying the data object written under id".
func (w *Writer) View(viewType string, id int) error {
	if err := w.EndText(); err != nil {
		return err
	}
	if err := checkTypeName(viewType); err != nil {
		w.err = err
		return err
	}
	marker := fmt.Sprintf("\\view{%s,%d}", viewType, id)
	if len(marker) > MaxLine {
		w.err = fmt.Errorf("%w: marker %q is %d chars; view name too long", ErrLongLine, marker, len(marker))
		return w.err
	}
	_, err := fmt.Fprintf(w.bw, "%s\n", marker)
	return w.keep(err)
}

// textChunk bounds how many bytes the streaming text entry escapes
// before handing them to the output, so its buffer stays a few kilobytes
// whatever it is given.
const textChunk = 4096

// WriteBytes is the streaming text entry: it encodes b, UTF-8 text, as
// payload text, each '\n' ending a logical line, and carries the current
// physical line's column across calls. A text may therefore arrive in
// any number of slices cut at rune boundaries (a piece table's pieces,
// say) and encodes exactly as the whole would in one WriteText. EndText
// finishes the text; Begin, End, View, WriteRawLine and Close end an
// open text first.
func (w *Writer) WriteBytes(b []byte) error { return writeStream(w, b) }

// writeStream is the streaming text entry over text held as a string or
// as bytes. It escapes at most textChunk bytes at a time, each chunk
// ending at a rune boundary so that no encoding is split.
func writeStream[S string | []byte](w *Writer, s S) error {
	if w.err != nil {
		return w.err
	}
	w.inText = true
	for len(s) > 0 {
		n := len(s)
		if n > textChunk {
			n = textChunk
			for k := n; k > n-utf8.UTFMax; k-- {
				if utf8.RuneStart(s[k]) {
					n = k
					break
				}
			}
		}
		w.line = escapeBytes(&w.text, w.line[:0], s[:n], true)
		if _, err := w.bw.Write(w.line); err != nil {
			return w.keep(err)
		}
		s = s[n:]
	}
	return nil
}

// EndText ends the text WriteBytes or WriteText began: its last logical
// line gets its newline. With no text open it does nothing.
func (w *Writer) EndText() error {
	if w.err != nil || !w.inText {
		return w.err
	}
	w.inText = false
	w.line = w.text.end(w.line[:0])
	_, err := w.bw.Write(w.line)
	return w.keep(err)
}

// WriteText encodes arbitrary text (any runes, any length) as payload
// lines, escaping and wrapping per the package rules: it is the
// streaming entry over s, then EndText. Each call emits one logical line
// per newline-separated segment of s, so the decoded content of the
// emitted tokens — joined with "\n" — is exactly s. Callers should
// therefore pass complete content in a single call rather than
// concatenating across calls.
func (w *Writer) WriteText(s string) error {
	if err := writeStream(w, s); err != nil {
		return err
	}
	return w.EndText()
}

// WriteRawLine emits one payload line verbatim. The component owns the
// content but the paper's constraints are still enforced: 7-bit printable
// (plus tab), under 80 columns, and no leading backslash (which would
// collide with the marker syntax).
func (w *Writer) WriteRawLine(s string) error {
	if err := w.EndText(); err != nil {
		return err
	}
	if len(s) > MaxLine {
		w.err = fmt.Errorf("%w: %d chars", ErrLongLine, len(s))
		return w.err
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\t' && (c < 32 || c > 126) {
			w.err = fmt.Errorf("%w: byte %#x at %d", ErrNotASCII, c, i)
			return w.err
		}
	}
	if strings.HasPrefix(s, `\`) {
		w.err = fmt.Errorf("%w: raw line starts with backslash", ErrSyntax)
		return w.err
	}
	_, err := fmt.Fprintln(w.bw, s)
	return w.keep(err)
}

// Depth returns how many objects are currently open.
func (w *Writer) Depth() int { return len(w.stack) }

// Close flushes and verifies that every Begin was matched by an End.
func (w *Writer) Close() error {
	if err := w.EndText(); err != nil {
		return err
	}
	if len(w.stack) != 0 {
		w.err = fmt.Errorf("%w: %d unclosed", ErrOpen, len(w.stack))
		return w.err
	}
	return w.bw.Flush()
}

func (w *Writer) keep(err error) error {
	if err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

func checkTypeName(typ string) error {
	if typ == "" {
		return fmt.Errorf("%w: empty type name", ErrSyntax)
	}
	for i := 0; i < len(typ); i++ {
		c := typ[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c >= '0' && c <= '9' || c == '_' || c == '-'
		if !ok {
			return fmt.Errorf("%w: bad type name %q", ErrSyntax, typ)
		}
	}
	return nil
}
