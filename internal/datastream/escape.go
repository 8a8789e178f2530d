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
// rules the external representation uses. There is one encoder
// (appendEscaped) and one decoder (decodeAppend); every writer and reader
// of the discipline goes through them.

// AppendEscaped appends the wire form of the logical line s to dst: every
// rune outside printable ASCII (newlines included) \uHEX;-escaped, literal
// backslashes doubled, and the result wrapped into physical lines of at
// most MaxLine columns. Each physical line ends with '\n', and every one
// but the last carries a continuation backslash before it.
func AppendEscaped(dst []byte, s string) []byte { return appendEscaped(dst, s) }

// AppendEscapedBytes is AppendEscaped for a []byte logical line.
func AppendEscapedBytes(dst, s []byte) []byte { return appendEscaped(dst, s) }

// appendEscaped is the escape encoder. It walks bytes and decodes a rune
// only where one starts outside ASCII, so neither instantiation copies s
// and escaping allocates nothing beyond dst's growth. (Ranging over
// string(s) would copy any []byte line longer than 32 bytes.)
func appendEscaped[S string | []byte](dst []byte, s S) []byte {
	col := 0 // columns used on the current physical line
	var tok [12]byte
	for i := 0; i < len(s); {
		c := s[i]
		if c != '\\' && (c == '\t' || c >= ' ' && c <= '~') {
			if col == MaxLine-1 { // leave room for a continuation '\'
				dst = append(dst, '\\', '\n')
				col = 0
			}
			dst = append(dst, c)
			col++
			i++
			continue
		}
		t, r, n := tok[:0], rune(c), 1
		if c == '\\' {
			t = append(t, '\\', '\\')
		} else {
			if c >= utf8.RuneSelf {
				r, n = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
			}
			t = append(strconv.AppendInt(append(t, '\\', 'u'), int64(r), 16), ';')
		}
		if col+len(t) > MaxLine-1 {
			dst = append(dst, '\\', '\n')
			col = 0
		}
		dst = append(dst, t...)
		col += len(t)
		i += n
	}
	return append(dst, '\n')
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
// document Reader, which holds its physical lines as strings.
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
