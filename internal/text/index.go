package text

import "atk/internal/chunked"

// Indexed-buffer layer: the piece table and the newline index, both
// chunked.Seq sequences, and the rune cursor. A piece's length and a hard
// line's length are its element lengths in those sequences, so buffer
// positions are derived, never stored: an edit rewrites one chunk of each
// index and shifts a few chunk offsets, a point or line lookup is a
// binary search over chunks plus a scan inside one, and iteration is
// amortized O(1) per rune.
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
// amortized O(1): the cursor holds the runes of the piece it is in, so
// sequential iteration never re-walks the piece table. Cursors survive
// edits: after any Insert/Delete/undo/redo/Compact the cursor re-seeks
// its numeric position (clamped to the new length) on the next call, in
// O(log k). The numeric position is NOT shifted across edits — a cursor
// at position 10 stays at position 10 whatever was inserted before it;
// callers tracking a semantic location must Seek explicitly.
//
// Cursor is a value type: copying one yields an independent iterator,
// and a stack-allocated cursor costs no heap allocation.
type Cursor struct {
	d   *Data
	gen uint64
	pos int                 // buffer position of the next rune Next returns
	it  chunked.Iter[piece] // the piece holding pos, or the end
	run []rune              // it's runes; nil at the end
	po  int                 // offset of pos in run (len(run) at a piece's end)
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
	c.it, c.po = d.pieceAt(pos)
	c.load()
}

// load points run at the runes of the cursor's piece.
func (c *Cursor) load() {
	c.run = nil
	if c.it.Ok() {
		p := c.it.Val()
		c.run = c.d.src(p.src)[p.off : p.off+c.it.Len()]
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
	if c.po == len(c.run) {
		if c.pos >= c.d.length {
			return 0, false
		}
		c.it.Next()
		c.load()
		c.po = 0
	}
	r = c.run[c.po]
	c.po++
	c.pos++
	return r, true
}

// Prev moves the cursor back one rune and returns the rune it moved
// over; ok is false at the start of the buffer.
func (c *Cursor) Prev() (r rune, ok bool) {
	c.revalidate()
	if c.pos <= 0 {
		return 0, false
	}
	if c.po == 0 {
		c.it.Prev()
		c.load()
		c.po = len(c.run)
	}
	c.po--
	c.pos--
	return c.run[c.po], true
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

// noteInsert updates the newline index for rs inserted at pos: the line
// holding pos grows, or splits at each newline in rs.
func (d *Data) noteInsert(pos int, rs []rune) {
	ln := d.lineAt(pos)
	var lens []int
	start := ln.Start() // of the line being split, after the insert
	for i, r := range rs {
		if r == '\n' {
			lens = append(lens, pos+i+1-start)
			start = pos + i + 1
		}
	}
	lens = append(lens, ln.End()+len(rs)-start)
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

// Runes returns a copy of the runes in [start, end) (clamped), walking
// the pieces directly — one allocation, no string round trip.
func (d *Data) Runes(start, end int) []rune {
	if start < 0 {
		start = 0
	}
	if end > d.length {
		end = d.length
	}
	if start >= end {
		return nil
	}
	out := make([]rune, 0, end-start)
	for it, po := d.pieceAt(start); len(out) < end-start; it.Next() {
		p := it.Val()
		take := min(it.Len()-po, end-start-len(out))
		out = append(out, d.src(p.src)[p.off+po:p.off+po+take]...)
		po = 0
	}
	return out
}
