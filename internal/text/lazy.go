package text

import (
	"io"
	"slices"
	"unicode/utf8"

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
// Next appends the next run of content to dst, as UTF-8 that ends at a
// rune boundary, and returns the extended slice: the store hands its own
// buffer in, so the content goes from the file into the store with no
// copy in between. Next returns io.EOF (with or without a final run)
// when the tail is exhausted. The Remaining estimates come from the
// save-time offset index and the file; they size the store and the
// scrollbar and carry no correctness weight.
type TailLoader interface {
	Next(dst []byte) ([]byte, error)
	RemainingBytes() int
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
	off := len(d.orig)
	var err error
	d.orig, err = d.tail.Next(d.orig)
	d.appendTail(off)
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

// LoadAll materializes the whole deferred tail. It reserves the store
// for the remainder first, so the loads append into one allocation
// instead of regrowing it: no more than the content bytes left, which
// escapes and line breaks only shrink, and no more than UTFMax bytes for
// each rune left.
func (d *Data) LoadAll() error {
	if d.tail != nil {
		d.orig = slices.Grow(d.orig, min(d.tail.RemainingBytes(), utf8.UTFMax*d.tail.RemainingRunes()))
	}
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

// appendTail takes the chunk the loader appended to the original buffer
// from off into the document, at its end. Bytes that are not valid UTF-8
// become U+FFFD first. This is not an edit: no undo record, no journal
// record, no dirty mark — just the piece table, the newline index, and
// an observer notification so views extend their layout. Appending at
// the end never shifts embeds, style runs, or any position a cursor or
// undo record holds.
func (d *Data) appendTail(off int) {
	d.orig, _ = validTail(d.orig, off)
	b := d.orig[off:]
	if len(b) == 0 {
		return
	}
	pos := d.length
	n := d.spliceIn(pos, srcOrig, off, b)
	d.length += n
	d.bump()
	d.noteInsert(pos, n, b)
	wasClean := !d.Dirty()
	d.NotifyObservers(core.Change{Kind: "load", Pos: pos, Length: n})
	if wasClean {
		d.MarkClean()
	}
}
