package text

import (
	"io"

	"atk/internal/core"
)

// Open-without-loading support. A document opened through the streaming
// persist path starts as a fully parsed *prefix* (possibly empty) plus a
// TailLoader that faults the remaining content in on demand. The loaded
// prefix is indistinguishable from a complete document — every position
// below Len() means exactly what it means in the full document — so
// read paths (layout, drawing, searching the visible region) work
// unchanged and simply see the document grow as chunks arrive.
//
// The correctness rule is load-before-mutate: any operation that edits
// the buffer, its styles, or its serialized form first materializes the
// whole tail (ensureLoaded). Edit positions, undo records, and journal
// records are therefore always relative to the complete document, and
// the persistence layer never sees a partial one.

// TailLoader supplies the deferred remainder of a streamed document.
// Next returns the next run of content runes; it returns io.EOF (with or
// without a final chunk) when the tail is exhausted. The Remaining
// estimates come from the save-time offset index and exist for scrollbar
// geometry — they carry no correctness weight.
type TailLoader interface {
	Next() ([]rune, error)
	RemainingRunes() int
	RemainingLines() int
	Close() error
}

// SetTailLoader attaches the deferred tail of a streamed open. The
// receiver must be the freshly parsed prefix of the same document the
// loader continues; content the loader delivers is appended verbatim.
func (d *Data) SetTailLoader(l TailLoader) {
	d.closeTail()
	d.tail = l
	d.tailErr = nil
}

// Pending reports whether deferred content remains to be loaded.
func (d *Data) Pending() bool { return d.tail != nil }

// TailErr returns the error that stopped tail loading, if any. A failed
// tail leaves the document truncated at the last good chunk; mutations
// still work, but the persistence layer refuses to overwrite the
// original file from a truncated buffer.
func (d *Data) TailErr() error { return d.tailErr }

// PendingRunes estimates how many runes are not yet loaded.
func (d *Data) PendingRunes() int {
	if d.tail == nil {
		return 0
	}
	return d.tail.RemainingRunes()
}

// PendingLines estimates how many newlines are not yet loaded.
func (d *Data) PendingLines() int {
	if d.tail == nil {
		return 0
	}
	return d.tail.RemainingLines()
}

// LoadMore faults in one chunk of the deferred tail. It is the
// incremental step the viewport-lazy layout calls as its frontier
// approaches the loaded end; one call costs one loader chunk, not the
// whole tail.
func (d *Data) LoadMore() error {
	if d.tail == nil {
		return d.tailErr
	}
	rs, err := d.tail.Next()
	if len(rs) > 0 {
		d.appendTail(rs)
	}
	if err != nil {
		d.closeTail()
		if err == io.EOF {
			return nil
		}
		d.tailErr = err
		return err
	}
	return nil
}

// LoadAll materializes the whole deferred tail.
func (d *Data) LoadAll() error {
	for d.tail != nil {
		if err := d.LoadMore(); err != nil {
			return err
		}
	}
	return d.tailErr
}

// ensureLoaded is the load-before-mutate gate. Load failures surface
// through TailErr; the mutation proceeds on the truncated document so an
// interactive session degrades instead of dying.
func (d *Data) ensureLoaded() {
	if d.tail != nil {
		_ = d.LoadAll()
	}
}

func (d *Data) closeTail() {
	if d.tail != nil {
		_ = d.tail.Close()
		d.tail = nil
	}
}

// appendTail appends one loaded chunk at the end of the buffer. This is
// not an edit: no undo record, no journal record, no dirty mark — just
// the piece table, the newline index, and an observer notification so
// views extend their layout. Appending at the end never shifts embeds,
// style runs, or any position a cursor or undo record holds.
func (d *Data) appendTail(rs []rune) {
	n := len(rs)
	if n == 0 {
		return
	}
	pos := d.length
	off := len(d.orig)
	d.orig = append(d.orig, rs...)
	d.spliceIn(pos, n, piece{srcOrig, off})
	d.length += n
	d.bump()
	d.noteInsert(pos, rs)
	wasClean := !d.Dirty()
	d.NotifyObservers(core.Change{Kind: "load", Pos: pos, Length: n})
	if wasClean {
		d.MarkClean()
	}
}
