package datastream

import (
	"fmt"
	"strconv"
	"unicode/utf8"
)

// The payload-line discipline — printable 7-bit ASCII plus tab, backslash
// escapes for everything else, continuation-wrapped under MaxLine — is
// exported here so other on-disk and wire formats (the persist package's
// record files, docserve frames) frame arbitrary text with the exact same
// rules the external representation uses. The rules live in three small
// helpers — plain (which bytes stand for themselves), lineEnc.wrap (the
// wrap at MaxLine-1) and lineEnc.escape (the \\ and \u tokens) — and one
// walk, the byte loop escapeBytes, over UTF-8 held as a string or []byte:
// one logical line (AppendEscaped), or the Writer's streaming text entry,
// fed piece by piece, where each '\n' ends a logical line. There is one
// decoder (decodeAppend) and one reader of lines (LineReader, line.go);
// every writer and reader of the discipline goes through these.

// plain reports whether byte c is written as itself: printable ASCII or
// tab, except the backslash, which is doubled.
func plain(c byte) bool { return c != '\\' && (c == '\t' || c >= ' ' && c <= '~') }

// lineEnc is the encoder's state inside one logical line: the columns
// used on the current physical line. The zero value starts a line.
type lineEnc struct{ col int }

// wrap breaks the physical line with a continuation if n more columns
// would not fit on it: a physical line holds at most MaxLine-1 columns
// before its continuation backslash.
func (e *lineEnc) wrap(dst []byte, n int) []byte {
	if e.col+n > MaxLine-1 {
		dst = append(dst, '\\', '\n')
		e.col = 0
	}
	return dst
}

// room wraps the physical line if it is full and returns how many plain
// columns are left on it. The caller adds the columns it fills to col.
func (e *lineEnc) room(dst []byte) ([]byte, int) {
	dst = e.wrap(dst, 1)
	return dst, MaxLine - 1 - e.col
}

// escape appends the token for a rune that is not plain: a doubled
// backslash, or \uHEX; for anything else, wrapping first if the token
// would not fit on the physical line. A rune that string() would turn
// into U+FFFD (a surrogate, or a value outside 0..MaxRune) encodes as
// \ufffd;, exactly as it would after that conversion.
func (e *lineEnc) escape(dst []byte, r rune) []byte {
	var tok [12]byte
	t := tok[:0]
	if r == '\\' {
		t = append(t, '\\', '\\')
	} else {
		if !utf8.ValidRune(r) {
			r = utf8.RuneError
		}
		t = append(strconv.AppendInt(append(t, '\\', 'u'), int64(r), 16), ';')
	}
	dst = e.wrap(dst, len(t))
	e.col += len(t)
	return append(dst, t...)
}

// end finishes the logical line.
func (e *lineEnc) end(dst []byte) []byte {
	e.col = 0
	return append(dst, '\n')
}

// AppendEscaped appends the wire form of the logical line s to dst: every
// rune outside printable ASCII (newlines included) \uHEX;-escaped, literal
// backslashes doubled, and the result wrapped into physical lines of at
// most MaxLine columns. Each physical line ends with '\n', and every one
// but the last carries a continuation backslash before it.
func AppendEscaped(dst []byte, s string) []byte { return appendEscaped(dst, s) }

// AppendEscapedBytes is AppendEscaped for a []byte logical line.
func AppendEscapedBytes(dst, s []byte) []byte { return appendEscaped(dst, s) }

func appendEscaped[S string | []byte](dst []byte, s S) []byte {
	var e lineEnc
	return e.end(escapeBytes(&e, dst, s, false))
}

// escapeBytes is the byte loop: it encodes s as the continuation of e's
// logical line, newlines included, or, with text set, as the
// continuation of e's text, where each '\n' ends a logical line. Each run
// of plain bytes is copied with one append per physical line, and a rune
// is decoded only where one starts outside ASCII, so neither
// instantiation copies s and escaping allocates nothing beyond dst's
// growth. (Ranging over string(s) would copy any []byte line longer than
// 32 bytes.) A text split at rune boundaries across any number of calls
// encodes exactly as it would in one.
func escapeBytes[S string | []byte](e *lineEnc, dst []byte, s S, text bool) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; !plain(c) {
			r, n := rune(c), 1
			if c >= utf8.RuneSelf {
				r, n = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
			}
			if c == '\n' && text {
				dst = e.end(dst)
			} else {
				dst = e.escape(dst, r)
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

// DecodeAppend decodes one physical payload line (without its newline)
// onto dst, undoing the escape scheme. cont reports a trailing
// continuation backslash: the logical line goes on in the next physical
// line. A \u escape must hold one or more hex digits (no sign) naming a
// value below 2^31; anything else is an error.
func DecodeAppend(dst, line []byte) (out []byte, cont bool, err error) {
	return decodeAppend(dst, line)
}

// decodeAppend is the escape decoder behind DecodeAppend and the
// LineReader; it decodes a line held as a string just the same.
func decodeAppend[S string | []byte](dst []byte, line S) (out []byte, cont bool, err error) {
	i := 0
	for i < len(line) {
		c := line[i]
		if c != '\\' {
			dst = append(dst, c)
			i++
			continue
		}
		if i == len(line)-1 {
			return dst, true, nil // continuation
		}
		switch line[i+1] {
		case '\\':
			dst = append(dst, '\\')
			i += 2
		case 'u':
			j := -1
			for k := i + 2; k < len(line); k++ {
				if line[k] == ';' {
					j = k - (i + 2)
					break
				}
			}
			if j < 0 {
				return dst, false, fmt.Errorf("unterminated \\u escape")
			}
			code, ok := int64(0), j > 0
			for k := i + 2; ok && k < i+2+j; k++ {
				var v int64
				switch c := line[k]; {
				case c >= '0' && c <= '9':
					v = int64(c - '0')
				case c >= 'a' && c <= 'f':
					v = int64(c-'a') + 10
				case c >= 'A' && c <= 'F':
					v = int64(c-'A') + 10
				default:
					ok = false
				}
				if code = code<<4 | v; code > 1<<31-1 {
					ok = false
				}
			}
			if !ok {
				return dst, false, fmt.Errorf("bad \\u escape %q", line[i:i+2+j+1])
			}
			dst = utf8.AppendRune(dst, rune(code))
			i += 2 + j + 1
		default:
			return dst, false, fmt.Errorf("unknown escape \\%c", line[i+1])
		}
	}
	return dst, false, nil
}
