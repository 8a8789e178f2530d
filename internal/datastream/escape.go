package datastream

import (
	"bytes"
	"fmt"
	"math/bits"
	"strings"
	"unicode/utf8"
)

// The payload-line discipline — printable 7-bit ASCII plus tab, backslash
// escapes for everything else, continuation-wrapped under MaxLine — is
// exported here so other on-disk and wire formats (the persist package's
// record files, docserve frames) frame arbitrary text with the exact same
// rules the external representation uses. The rules live in three small
// helpers — plain (which bytes stand for themselves), lineEnc.wrap (the
// wrap at MaxLine-1) and lineEnc.escape (the \\ and \u tokens) — and one
// walk, escapeBytes, over UTF-8 held as a string or []byte: one logical
// line (AppendEscaped), or the Writer's streaming text entry, fed piece
// by piece, where each '\n' ends a logical line. A line of plain bytes
// that fits the columns left encodes as itself, so the streaming entry
// copies runs of such whole lines verbatim, newlines included; every
// other line goes through the escape loop (escapeLine). Both find where
// plain bytes end with one scan, plainRun, which tests eight bytes at a
// time. There is one decoder (decodeAppend), which copies the
// bytes between backslashes in one append each, and one reader of lines
// (LineReader, line.go); every writer and reader of the discipline goes
// through these.

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
	if r == '\n' { // the commonest by far: every line break of a snapshot
		dst = e.wrap(dst, 4)
		e.col += 4
		return append(dst, `\ua;`...)
	}
	var tok [12]byte
	t := tok[:0]
	if r == '\\' {
		t = append(t, '\\', '\\')
	} else {
		if !utf8.ValidRune(r) {
			r = utf8.RuneError
		}
		t = append(appendHex(append(t, '\\', 'u'), uint32(r)), ';')
	}
	dst = e.wrap(dst, len(t))
	e.col += len(t)
	return append(dst, t...)
}

// appendHex appends v in lowercase hex without leading zeros, as
// strconv.AppendUint(dst, v, 16) does.
func appendHex(dst []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for sh := (bits.Len32(v|1) - 1) &^ 3; sh >= 0; sh -= 4 {
		dst = append(dst, digits[v>>sh&0xf])
	}
	return dst
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
func AppendEscaped(dst []byte, s string) []byte {
	var e lineEnc
	return e.end(escapeBytes(&e, dst, s, false))
}

// AppendEscapedBytes is AppendEscaped for a []byte logical line, given
// whole or as parts that are split at rune boundaries: the parts encode
// exactly as their concatenation would, without being concatenated.
func AppendEscapedBytes(dst []byte, parts ...[]byte) []byte {
	var e lineEnc
	for _, s := range parts {
		dst = escapeBytes(&e, dst, s, false)
	}
	return e.end(dst)
}

// escapeBytes encodes s as the continuation of e's logical line, newlines
// included, or, with text set, as the continuation of e's text, where
// each '\n' ends a logical line. In text mode each run of whole lines
// that encode as themselves (plainLines) is copied in one append; every
// other line, and all of s outside text mode, goes through escapeLine.
// A rune is decoded only where one starts outside ASCII, so neither
// instantiation copies s and escaping allocates nothing beyond dst's
// growth. A text split at rune boundaries across any number of calls
// encodes exactly as it would in one.
func escapeBytes[S string | []byte](e *lineEnc, dst []byte, s S, text bool) []byte {
	for i := 0; i < len(s); {
		if text {
			if n := plainLines(s[i:], e.col); n > 0 {
				dst = append(dst, s[i:i+n]...)
				e.col, i = 0, i+n
				if i == len(s) {
					break
				}
			}
		}
		dst, i = escapeLine(e, dst, s, i, text)
	}
	return dst
}

// escapeLine encodes s from i through the '\n' that ends the logical
// line in text mode (or to the end of s), and returns where it stopped.
// Each run of plain bytes is copied with one append per physical line.
// (Ranging over string(s) would copy any []byte line longer than 32
// bytes.)
func escapeLine[S string | []byte](e *lineEnc, dst []byte, s S, i int, text bool) ([]byte, int) {
	for i < len(s) {
		if c := s[i]; !plain(c) {
			r, n := rune(c), 1
			if c >= utf8.RuneSelf {
				r, n = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
			}
			if c == '\n' && text {
				return e.end(dst), i + 1
			}
			dst = e.escape(dst, r)
			i += n
			continue
		}
		var room int
		dst, room = e.room(dst)
		j := plainRun(s, i+1, min(len(s), i+room))
		dst = append(dst, s[i:j]...)
		e.col += j - i
		i = j
	}
	return dst, i
}

// plainLines returns how many bytes of s, from its start, are whole lines
// that encode as themselves, newlines included: every byte plain, and
// each line fitting on its physical line — the first in the MaxLine-1-col
// columns left of it, the rest in MaxLine-1. A line that does not is
// scanned only up to its first byte that is not plain, or its first byte
// past the columns left.
func plainLines[S string | []byte](s S, col int) int {
	n := 0
	for room := MaxLine - 1 - col; ; room = MaxLine - 1 {
		end := min(len(s), n+room+1)
		j := plainRun(s, n, end)
		if j == end || s[j] != '\n' {
			return n
		}
		n = j + 1
	}
}

// plainRun returns the index of the first byte of s[i:end] that is not
// plain, or end if they all are. It tests eight bytes at a time; a word
// holding a tab, which is plain but fails the word test, is stepped past
// the tab and tested again.
func plainRun[S string | []byte](s S, i, end int) int {
	for i+8 <= end {
		m := notPlain(Load64(s[i : i+8]))
		if m == 0 {
			i += 8
			continue
		}
		if i += bits.TrailingZeros64(m) / 8; s[i] != '\t' {
			return i
		}
		i++
	}
	for i < end && plain(s[i]) {
		i++
	}
	return i
}

// Load64 reads the eight bytes of s as a little-endian word, for scans
// that test eight bytes at a time; it takes strings and byte slices
// alike.
func Load64[S string | []byte](s S) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// notPlain marks, with the high bit of a byte, the bytes of x that are
// not printable ASCII other than the backslash: below ' ' (a tab among
// them), above '~', or '\\'. It is zero when all eight bytes are. Its
// lowest mark is exactly the first such byte (from the low end); marks
// above it may be off by borrows and carries.
func notPlain(x uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	below := (x - ' '*ones) &^ x
	above := (x + ('\x7f'-'~')*ones) | x
	bs := x ^ '\\'*ones
	backslash := (bs - ones) &^ bs
	return (below | above | backslash) & highs
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
// LineReader; it decodes a line held as a string just the same. The bytes
// up to each backslash go onto dst in one append.
func decodeAppend[S string | []byte](dst []byte, line S) (out []byte, cont bool, err error) {
	i := 0
	for i < len(line) {
		k := indexByte(line[i:], '\\')
		if k < 0 {
			return append(dst, line[i:]...), false, nil
		}
		dst = append(dst, line[i:i+k]...)
		if i += k; i == len(line)-1 {
			return dst, true, nil // continuation
		}
		switch line[i+1] {
		case '\\':
			dst = append(dst, '\\')
			i += 2
		case 'u':
			if i+3 < len(line) && line[i+2] == 'a' && line[i+3] == ';' {
				dst = append(dst, '\n') // the commonest by far
				i += 4
				continue
			}
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

// indexByte is bytes.IndexByte or strings.IndexByte, whichever s is.
func indexByte[S string | []byte](s S, c byte) int {
	if b, ok := any(s).([]byte); ok {
		return bytes.IndexByte(b, c)
	}
	return strings.IndexByte(string(s), c)
}
