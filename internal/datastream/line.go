package datastream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// ErrNoNewline marks a final physical line the stream ended without a
// newline. ReadLine, Join and ReadLogical return it with that line,
// which is otherwise whole; what it means is the caller's policy.
var ErrNoNewline = errors.New("datastream: final line has no newline")

// A SyntaxError is a physical line the escape decoder rejected. It
// wraps ErrSyntax.
type SyntaxError struct {
	Line int   // the rejected physical line, 1-based
	Err  error // what the decoder found wrong
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%v at line %d: %v", ErrSyntax, e.Line, e.Err)
}

func (e *SyntaxError) Unwrap() error { return ErrSyntax }

// maxKeptLine caps the buffers a LineReader keeps from one line to the
// next: one that a long line grew past it is dropped, so a long-lived
// reader does not hold its longest line for life.
const maxKeptLine = 64 << 10

// LineReader is the one reader of the line discipline: the document
// Reader, docserve frames, persist's streamed tail and its record files
// all read through one. It reads newline-terminated physical lines of
// bounded length and the logical lines that they, joined by
// continuations, decode to, and counts the physical lines. Each caller
// maps its errors to its own policy.
type LineReader struct {
	br    *bufio.Reader
	max   int    // longest physical line accepted, newline not counted
	long  []byte // a physical line longer than br's buffer
	dec   []byte // the logical line being decoded
	lines int    // physical lines read
	torn  bool   // the last line read had no newline: the stream ended
}

// NewLineReader returns a LineReader over br that refuses a physical
// line longer than maxLine bytes, its newline not counted.
func NewLineReader(br *bufio.Reader, maxLine int) *LineReader {
	return &LineReader{br: br, max: maxLine}
}

// Lines returns how many physical lines have been read.
func (lr *LineReader) Lines() int { return lr.lines }

// ReadLine returns the next physical line without its newline. A line
// that fits the bufio buffer is not copied; either way the slice is
// valid until the next read. At the end of the stream ReadLine returns
// io.EOF, and a final line without a newline comes with ErrNoNewline. A
// line longer than the bound fails with ErrLimit once at most the bound
// plus one buffer of it has been read.
func (lr *LineReader) ReadLine() ([]byte, error) {
	if cap(lr.long) > maxKeptLine {
		lr.long = nil
	}
	b, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], b...)
		for err == bufio.ErrBufferFull && len(lr.long) <= lr.max {
			b, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, b...)
		}
		b = lr.long
	}
	switch err {
	case nil:
		b = b[:len(b)-1]
	case bufio.ErrBufferFull: // still no newline: the line overran the bound
	case io.EOF:
		if len(b) == 0 {
			return nil, io.EOF
		}
		err = ErrNoNewline
	default:
		return nil, err
	}
	if len(b) > lr.max {
		return nil, fmt.Errorf("%w: physical line longer than %d bytes (line %d)", ErrLimit, lr.max, lr.lines+1)
	}
	lr.lines++
	lr.torn = err != nil
	return b, err
}

// Join decodes the logical line whose first physical line is first, as
// ReadLine returned it, reading its continuation lines and decoding them
// all into a buffer reused across calls; the result is valid until the
// next Join. limit bounds the decoded length (ErrLimit), checked as each
// physical line is added. Besides ReadLine's errors, Join returns a
// *SyntaxError for a line the decoder rejects and io.ErrUnexpectedEOF
// when the stream ends inside the logical line, both with what was
// decoded before them, and ErrNoNewline with a logical line whose last
// physical line had no newline.
func (lr *LineReader) Join(first []byte, limit int) ([]byte, error) {
	if cap(lr.dec) > maxKeptLine {
		lr.dec = nil
	}
	var err error
	lr.dec, err = lr.JoinAppend(lr.dec[:0], first, limit)
	return lr.dec, err
}

// JoinAppend is Join decoding onto the end of dst, a buffer of the
// caller's, so a logical line can go straight where it is wanted; limit
// bounds the length of the result, dst's bytes included. It returns the
// result with the same errors as Join. first may be the rest of a
// physical line whose start the caller has read itself, cut after a
// plain byte.
func (lr *LineReader) JoinAppend(dst, first []byte, limit int) ([]byte, error) {
	line := first
	for {
		var cont bool
		var derr error
		dst, cont, derr = decodeAppend(dst, line)
		if derr != nil {
			return dst, &SyntaxError{lr.lines, derr}
		}
		if len(dst) > limit {
			return dst, fmt.Errorf("%w: logical line past %d bytes (line %d)", ErrLimit, limit, lr.lines)
		}
		if !cont {
			if lr.torn {
				return dst, ErrNoNewline
			}
			return dst, nil
		}
		var err error
		if line, err = lr.ReadLine(); err == io.EOF {
			return dst, io.ErrUnexpectedEOF
		} else if err != nil && err != ErrNoNewline {
			return dst, err
		}
	}
}

// ReadLogical reads the next logical line and decodes it, as ReadLine
// and Join do: it returns io.EOF only at the end of the stream.
func (lr *LineReader) ReadLogical(limit int) ([]byte, error) {
	first, err := lr.ReadLine()
	if err != nil && err != ErrNoNewline {
		return nil, err
	}
	return lr.Join(first, limit)
}
