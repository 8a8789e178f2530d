package text

import (
	"bytes"
	"unicode/utf8"

	"atk/internal/datastream"
)

// The store. Text lives as UTF-8 in two buffers, the original one (what
// was loaded) and the add buffer (what was typed), and the piece table
// lists the byte spans of them that make up the document, in order. A
// piece's element length in d.pieces is its rune count, so every
// position stays a rune offset; the piece itself carries its byte offset
// and byte length.
//
// The piece rule: a piece is ASCII, so its byte length equals its rune
// count and a rune offset in it is a byte offset, or it is at most
// maxMixed bytes long, so finding a rune offset in it is a bounded scan.
// cut builds every piece on every path (setStore, and spliceIn for
// inserts and the streamed tail) and keeps the rule; mergeable lets a
// piece join the one before it only under the rule, and a remainder of a
// piece keeps the rule by itself.
//
// Only valid UTF-8 enters the buffers: appendValid (and validTail, which
// does the same in place) writes each byte that does not start a valid
// encoding as U+FFFD, one replacement per bad byte, which is what ranging
// over a string yields. The store therefore decodes to exactly the runes
// []rune(s) would hold for its input.

// maxMixed bounds the bytes of a piece that holds non-ASCII text.
const maxMixed = 256

// piece is a byte span of one source buffer; its rune count is its
// element length in Data.pieces.
type piece struct {
	src  pieceSrc
	off  int // byte offset in the source buffer
	size int // byte length
}

// asciiLen returns the length of b's leading ASCII run, eight bytes at a
// time.
func asciiLen[S string | []byte](b S) int {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if datastream.Load64(b[i:i+8])&0x8080808080808080 != 0 {
			break
		}
	}
	for i < len(b) && b[i] < utf8.RuneSelf {
		i++
	}
	return i
}

// width returns the byte length of the encoding that starts with c, a
// byte that starts a rune in valid UTF-8.
func width(c byte) int {
	switch {
	case c < 0xE0:
		return 1 + int(c>>7) // ASCII, or a two-byte lead
	case c < 0xF0:
		return 3
	}
	return 4
}

// cut returns the byte and rune length of the first piece of b, valid
// UTF-8. All of an ASCII b is one piece, and so is an ASCII run of at
// least maxMixed bytes. Other text goes into pieces of at most maxMixed
// bytes, cut at rune boundaries and before such a long ASCII run; the
// short ASCII runs between non-ASCII runes stay in their mixed piece, so
// accented words do not each cost a piece.
func cut(b []byte) (size, runes int) {
	if a := asciiLen(b); a == len(b) || a >= maxMixed {
		return a, a
	}
	for size < len(b) {
		if b[size] < utf8.RuneSelf {
			a := asciiLen(b[size:min(len(b), size+maxMixed)])
			if a == maxMixed {
				break // a long ASCII run: the next piece
			}
			a = min(a, maxMixed-size)
			if a == 0 {
				break
			}
			size += a
			runes += a
			continue
		}
		w := width(b[size])
		if size+w > maxMixed {
			break
		}
		size += w
		runes++
	}
	return size, runes
}

// appendPieces appends the pieces of b, which sits at off in src, to
// lens and ps, and returns them with b's rune count.
func appendPieces(lens []int, ps []piece, src pieceSrc, off int, b []byte) ([]int, []piece, int) {
	n := 0
	for i := 0; i < len(b); {
		size, runes := cut(b[i:])
		lens, ps = append(lens, runes), append(ps, piece{src, off + i, size})
		i += size
		n += runes
	}
	return lens, ps, n
}

// mergeable reports whether piece q of m runes, which starts in the
// source buffer where p of n runes ends, can join p under the piece rule.
func mergeable(p piece, n int, q piece, m int) bool {
	return p.src == q.src && p.off+p.size == q.off &&
		(p.size == n && q.size == m || p.size+q.size <= maxMixed)
}

// byteOff returns the byte offset of rune offset ro in b, valid UTF-8
// holding n runes: ro itself when b is ASCII, a scan otherwise.
func byteOff(b []byte, n, ro int) int {
	if len(b) == n {
		return ro
	}
	if ro == n {
		return len(b)
	}
	i := 0
	for ; ro > 0; ro-- {
		i += width(b[i])
	}
	return i
}

// validPrefix returns the byte length of s's longest prefix that is
// valid UTF-8, and its runes. ASCII is skipped eight bytes at a time; a
// rune is decoded only where one starts outside ASCII.
func validPrefix[S string | []byte](s S) (size, runes int) {
	for size < len(s) {
		if s[size] < utf8.RuneSelf {
			a := asciiLen(s[size:])
			size, runes = size+a, runes+a
			continue
		}
		_, w := utf8.DecodeRuneInString(string(s[size:min(size+utf8.UTFMax, len(s))]))
		if w == 1 { // a bad byte: a valid rune past ASCII takes two or more
			break
		}
		size, runes = size+w, runes+1
	}
	return size, runes
}

// appendValid appends s to dst as valid UTF-8, each byte of s that does
// not start a valid encoding written as U+FFFD, and returns the runes it
// appended. Valid runs are copied whole.
func appendValid[S string | []byte](dst []byte, s S) ([]byte, int) {
	n := 0
	for {
		v, k := validPrefix(s)
		dst, n = append(dst, s[:v]...), n+k
		if v == len(s) {
			return dst, n
		}
		dst, n = append(dst, string(utf8.RuneError)...), n+1
		s = s[v+1:]
	}
}

// validTail makes b[start:] valid UTF-8 in place, as appendValid would
// have written it, and returns b and the runes of b[start:]. Only a tail
// holding a bad byte is rewritten, from its first bad byte on.
func validTail(b []byte, start int) ([]byte, int) {
	v, n := validPrefix(b[start:])
	if start+v == len(b) {
		return b, n
	}
	b, k := appendValid(b[:start+v], bytes.Clone(b[start+v:]))
	return b, n + k
}
