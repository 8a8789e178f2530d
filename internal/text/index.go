package text

import (
	"bytes"
	"unicode/utf8"

	"atk/internal/chunked"
)

// Indexed-buffer layer: the piece table and the newline index, both
// chunked.Seq sequences, and the rune cursor. A piece's rune count and a
// hard line's length are their element lengths in those sequences, so
// buffer positions are derived, never stored: an edit rewrites one chunk
// of each index and shifts a few chunk offsets, a point or line lookup is
// a binary search over chunks plus a scan inside one (and, in a piece
// holding non-ASCII text, a scan of at most maxMixed bytes), and
// iteration is amortized O(1) per rune.
//
// Concurrency: like every toolkit data object, Data is not safe for
// concurrent mutation. Concurrent readers (each with its own Cursor) are
// safe while no goroutine mutates the buffer: no lookup writes.

// --- piece index ---

// pieceAt locates the piece holding rune position pos, returning an
// iterator at it and the rune offset of pos within it; for pos == Len
// the iterator is at the end and the offset 0.
func (d *Data) pieceAt(pos int) (chunked.Iter[piece], int) {
	it := d.pieces.Find(pos)
	return it, pos - it.Start()
}

// bump invalidates outstanding cursors after a piece-table mutation: they
// detect the new generation and re-seek themselves.
func (d *Data) bump() { d.gen++ }

// --- cursor ---

// Cursor is an iteration position in the buffer. Next and Prev run in
// amortized O(1): the cursor holds the bytes of the piece it is in and
// its byte offset there, so sequential iteration never re-walks the
// piece table; it reads one byte for ASCII and decodes UTF-8 forward or
// backward otherwise. Cursors survive edits: after any
// Insert/Delete/undo/redo/Compact the cursor re-seeks its numeric
// position (clamped to the new length) on the next call, in O(log k).
// The numeric position is NOT shifted across edits — a cursor at
// position 10 stays at position 10 whatever was inserted before it;
// callers tracking a semantic location must Seek explicitly.
//
// Cursor is a value type: copying one yields an independent iterator,
// and a stack-allocated cursor costs no heap allocation.
type Cursor struct {
	d   *Data
	gen uint64
	pos int                 // buffer position of the next rune Next returns
	it  chunked.Iter[piece] // the piece holding pos, or the end
	run []byte              // it's bytes; nil at the end
	bo  int                 // byte offset of pos in run (len(run) at a piece's end)
}

// Cursor returns a cursor positioned at pos (clamped to [0, Len]).
// Next returns the rune at pos; Prev returns the rune before it.
func (d *Data) Cursor(pos int) Cursor {
	c := Cursor{d: d}
	c.Seek(pos)
	return c
}

// Seek repositions the cursor at pos (clamped to [0, Len]) in O(log k).
func (c *Cursor) Seek(pos int) {
	d := c.d
	pos = max(0, min(pos, d.length))
	c.gen = d.gen
	c.pos = pos
	var po int
	c.it, po = d.pieceAt(pos)
	c.load()
	if c.run != nil {
		c.bo = byteOff(c.run, c.it.Len(), po)
	}
}

// load points run at the bytes of the cursor's piece and bo at its start.
func (c *Cursor) load() {
	c.run, c.bo = nil, 0
	if c.it.Ok() {
		c.run = c.d.bytesOf(c.it.Val())
	}
}

// Pos returns the cursor's buffer position.
func (c *Cursor) Pos() int { return c.pos }

// revalidate re-seeks after a buffer mutation invalidated the piece
// coordinates. The numeric position is kept (clamped).
func (c *Cursor) revalidate() {
	if c.gen != c.d.gen {
		c.Seek(c.pos)
	}
}

// Next returns the rune at the cursor and advances past it; ok is false
// at the end of the buffer.
func (c *Cursor) Next() (r rune, ok bool) {
	c.revalidate()
	if c.bo == len(c.run) {
		if c.pos >= c.d.length {
			return 0, false
		}
		c.it.Next()
		c.load()
	}
	c.pos++
	if b := c.run[c.bo]; b < utf8.RuneSelf {
		c.bo++
		return rune(b), true
	}
	r, n := utf8.DecodeRune(c.run[c.bo:])
	c.bo += n
	return r, true
}

// Prev moves the cursor back one rune and returns the rune it moved
// over; ok is false at the start of the buffer.
func (c *Cursor) Prev() (r rune, ok bool) {
	c.revalidate()
	if c.pos <= 0 {
		return 0, false
	}
	if c.bo == 0 {
		c.it.Prev()
		c.load()
		c.bo = len(c.run)
	}
	c.pos--
	if b := c.run[c.bo-1]; b < utf8.RuneSelf {
		c.bo--
		return rune(b), true
	}
	r, n := utf8.DecodeLastRune(c.run[:c.bo])
	c.bo -= n
	return r, true
}

// --- newline index ---

// The newline index d.lines holds one element per hard line, its length
// counting the line's newline; the last line has none and may be empty.
// So Len is LineCount, Total is the buffer length, and the line holding
// pos is a Find. Every insert and delete rewrites the lines it touches.

// lineAt returns the hard line holding pos (the last line for pos ==
// Len).
func (d *Data) lineAt(pos int) chunked.Iter[struct{}] {
	it := d.lines.Find(pos)
	if !it.Ok() {
		it.Prev()
	}
	return it
}

// resetLines empties the newline index to the one line of an empty
// buffer.
func (d *Data) resetLines() {
	d.lines.Reset()
	d.lines.Append(0, struct{}{})
}

// noteInsert updates the newline index for b, n runes, inserted at pos:
// the line holding pos grows, or splits at each newline in b. Newlines
// are found with IndexByte, and runes are counted only where b is not
// ASCII.
func (d *Data) noteInsert(pos, n int, b []byte) {
	ln := d.lineAt(pos)
	var buf [4]int
	lens := buf[:0]
	start := ln.Start() // of the line being split, after the insert
	at := pos           // the position of b[i]
	for i := 0; ; {
		j := bytes.IndexByte(b[i:], '\n')
		if j < 0 {
			break
		}
		if len(b) == n {
			at += j
		} else {
			at += utf8.RuneCount(b[i : i+j])
		}
		at++ // past the newline
		lens = append(lens, at-start)
		start = at
		i += j + 1
	}
	lens = append(lens, ln.End()+n-start)
	d.lines.Replace(ln.Index(), ln.Index()+1, lens, make([]struct{}, len(lens)))
}

// noteDelete updates the newline index for the deletion of [pos, pos+n):
// the lines it touches join into one.
func (d *Data) noteDelete(pos, n int) {
	a, b := d.lineAt(pos), d.lineAt(pos+n)
	joined := pos - a.Start() + b.End() - (pos + n)
	d.lines.Replace(a.Index(), b.Index()+1, []int{joined}, []struct{}{{}})
}

// LineCount returns the number of hard (newline-delimited) lines, in
// O(1). An empty buffer has one line; a trailing newline opens another.
func (d *Data) LineCount() int { return d.lines.Len() }

// LineOf returns the zero-based hard-line number containing pos.
func (d *Data) LineOf(pos int) int {
	return d.lineAt(max(0, min(pos, d.length))).Index()
}

// Runes returns a copy of the runes in [start, end) (clamped), decoded
// from the pieces directly: one allocation, no string round trip.
func (d *Data) Runes(start, end int) []rune {
	start, end = max(start, 0), min(end, d.length)
	if start >= end {
		return nil
	}
	out := make([]rune, 0, end-start)
	d.eachSpan(start, end, func(b []byte) {
		for i := 0; i < len(b); {
			r, n := rune(b[i]), 1
			if r >= utf8.RuneSelf {
				r, n = utf8.DecodeRune(b[i:])
			}
			out = append(out, r)
			i += n
		}
	})
	return out
}

// eachSpan calls f with the bytes of [start, end), 0 <= start <= end <=
// Len, one piece's span at a time.
func (d *Data) eachSpan(start, end int, f func([]byte)) {
	for it, po := d.pieceAt(start); start < end; it.Next() {
		k := min(it.Len()-po, end-start)
		f(d.span(it, po, k))
		start += k
		po = 0
	}
}

// span returns the bytes of the k runes at rune offset po of the piece
// at it.
func (d *Data) span(it chunked.Iter[piece], po, k int) []byte {
	b, n := d.bytesOf(it.Val()), it.Len()
	s := byteOff(b, n, po)
	return b[s : s+byteOff(b[s:], n-po, k)]
}

// byteLen returns the UTF-8 length of [start, end), 0 <= start <= end <=
// Len: whole pieces by their sizes, and a scan only in the first and
// last.
func (d *Data) byteLen(start, end int) int {
	n := 0
	d.eachSpan(start, end, func(b []byte) { n += len(b) })
	return n
}

// copyBytes returns a copy of the bytes of [start, end), 0 <= start <=
// end <= Len, in one allocation of the exact size.
func (d *Data) copyBytes(start, end int) []byte {
	out := make([]byte, 0, d.byteLen(start, end))
	d.eachSpan(start, end, func(b []byte) { out = append(out, b...) })
	return out
}
