// Package text implements the multi-font text data object, the toolkit's
// flagship component: a piece-table buffer with named-style runs and
// embedded-object anchors. Any other component can be embedded at any
// position; the text object uses the generic mechanism of core, so a
// component type invented years later embeds exactly like a table does
// (the music-department scenario of paper §1).
package text

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"atk/internal/chunked"
	"atk/internal/class"
	"atk/internal/core"
)

// AnchorRune is the placeholder occupying one rune position wherever a
// component is embedded.
const AnchorRune = '￼'

// Errors reported by buffer operations.
var (
	ErrRange = errors.New("text: position out of range")
)

type pieceSrc uint8

const (
	srcOrig pieceSrc = iota
	srcAdd
)

// Embedded records one embedded component: the data object, the view type
// that should display it, and its rune position in the buffer.
type Embedded struct {
	Pos      int
	Obj      core.DataObject
	ViewName string
}

// Data is the text data object. It is not safe for concurrent use, like
// all toolkit data objects.
type Data struct {
	core.BaseData
	orig   []byte // UTF-8; see store.go
	add    []byte
	pieces chunked.Seq[piece]
	length int

	// Derived state (see index.go). gen counts piece-table mutations, so
	// cursors know to re-seek; lines is the newline index.
	gen   uint64
	lines chunked.Seq[struct{}]

	styles *StyleTable
	runs   []Run
	embeds []*Embedded

	// reg instantiates embedded component types during ReadPayload;
	// nil means class.Default.
	reg *class.Registry

	// Undo journal (see undo.go).
	undoLog []editOp
	redoLog []editOp
	inUndo  bool
	noUndo  bool

	// tail faults in deferred content for open-without-loading documents
	// (see lazy.go); nil once fully loaded. tailErr latches a load failure.
	tail    TailLoader
	tailErr error

	// editLog receives every primitive mutation for write-ahead
	// journaling (see journal.go); nil when no journal is attached.
	editLog func(EditRecord)
	// applying suppresses editLog while ApplyRecord replays a record from
	// elsewhere (a recovery, a replication peer): an applied remote op must
	// never echo back into the applier's own journal.
	applying bool
}

// New returns an empty text object with the standard style table.
func New() *Data {
	d := &Data{styles: NewStyleTable()}
	d.resetLines()
	d.InitData(d, "text", "textview")
	return d
}

// NewString returns a text object initialized with s.
func NewString(s string) *Data {
	d := New()
	b, _ := appendValid(nil, s)
	d.setContent(b)
	return d
}

// Len returns the buffer length in runes (anchors count as one).
func (d *Data) Len() int { return d.length }

// Styles returns the style table.
func (d *Data) Styles() *StyleTable { return d.styles }

// Runs returns the style runs (sorted, non-overlapping, read-only).
func (d *Data) Runs() []Run { return d.runs }

// Embeds returns the embedded components ordered by position (read-only).
func (d *Data) Embeds() []*Embedded { return d.embeds }

// RuneAt returns the rune at pos, in O(log k) via the piece index.
func (d *Data) RuneAt(pos int) (rune, error) {
	if pos < 0 || pos >= d.length {
		return 0, fmt.Errorf("%w: %d of %d", ErrRange, pos, d.length)
	}
	it, po := d.pieceAt(pos)
	b := d.bytesOf(it.Val())
	if len(b) == it.Len() {
		return rune(b[po]), nil
	}
	r, _ := utf8.DecodeRune(b[byteOff(b, it.Len(), po):])
	return r, nil
}

func (d *Data) src(s pieceSrc) []byte {
	if s == srcOrig {
		return d.orig
	}
	return d.add
}

// bytesOf returns the bytes of piece p.
func (d *Data) bytesOf(p piece) []byte { return d.src(p.src)[p.off : p.off+p.size] }

// Slice returns the runes in [start,end) (clamped) as a string; anchors
// appear as AnchorRune. The starting piece is found through the index,
// so a slice near the end of a fragmented buffer does not walk every
// piece, and the bytes are copied once, into the string.
func (d *Data) Slice(start, end int) string {
	start, end = max(start, 0), min(end, d.length)
	if start >= end {
		return ""
	}
	if it, po := d.pieceAt(start); end-start <= it.Len()-po {
		return string(d.span(it, po, end-start)) // within one piece
	}
	var sb strings.Builder
	sb.Grow(d.byteLen(start, end))
	d.eachSpan(start, end, func(b []byte) { sb.Write(b) })
	return sb.String()
}

// String returns the whole buffer.
func (d *Data) String() string { return d.Slice(0, d.length) }

// ByteLen returns the length of the loaded text in UTF-8 bytes: what a
// save encodes, before escapes.
func (d *Data) ByteLen() int { return d.byteLen(0, d.length) }

// Insert places s at pos. An s containing AnchorRune is rejected; anchors
// enter only through Embed. Each byte of s that is not valid UTF-8 is
// stored as U+FFFD.
func (d *Data) Insert(pos int, s string) error {
	if strings.ContainsRune(s, AnchorRune) {
		return fmt.Errorf("text: cannot insert anchor rune directly")
	}
	return d.insertText(pos, s, "insert")
}

// insertText appends s to the add buffer, straight from the string (no
// []rune, no copy of s), and splices it in at pos: pieces, indexes,
// undo, journal, notify.
func (d *Data) insertText(pos int, s, kind string) error {
	d.ensureLoaded()
	if pos < 0 || pos > d.length {
		return fmt.Errorf("%w: insert at %d of %d", ErrRange, pos, d.length)
	}
	if s == "" {
		return nil
	}
	off := len(d.add)
	d.add, _ = appendValid(d.add, s)
	b := d.add[off:len(d.add):len(d.add)]
	if !d.inUndo && !d.noUndo {
		d.record(editOp{kind: opInsert, pos: pos, text: s})
	}
	n := d.spliceIn(pos, srcAdd, off, b)
	d.length += n
	d.bump()
	d.noteInsert(pos, n, b)
	d.shiftForInsert(pos, n)
	if d.editLog != nil {
		// An insert carrying anchor runes (Embed, redo of a deletion that
		// had embeds) drags live objects the journal cannot serialize.
		if hasAnchor(b) {
			d.logEdit(EditRecord{Kind: RecReset, Text: "embedded component"})
		} else {
			d.logEdit(EditRecord{Kind: RecInsert, Pos: pos, Text: s})
		}
	}
	d.NotifyObservers(core.Change{Kind: kind, Pos: pos, Length: n})
	return nil
}

// anchorBytes is AnchorRune's UTF-8 encoding.
var anchorBytes = []byte(string(AnchorRune))

func hasAnchor(b []byte) bool { return bytes.Contains(b, anchorBytes) }

// setContent replaces the buffer with content, valid UTF-8, and rebuilds
// the newline index: the initialization path (NewString, ReadPayload,
// Extract). Styles and embeds are the caller's.
func (d *Data) setContent(content []byte) {
	d.setStore(content)
	d.resetLines()
	d.noteInsert(0, d.length, content)
}

// setStore makes content, valid UTF-8, the original buffer and the whole
// document, cut into pieces, and empties the add buffer.
func (d *Data) setStore(content []byte) {
	d.orig, d.add, d.length = content, nil, 0
	d.pieces.Reset()
	for i := 0; i < len(content); {
		size, runes := cut(content[i:])
		d.pieces.Append(runes, piece{srcOrig, i, size})
		d.length += runes
		i += size
	}
	d.bump()
}

// spliceIn splices the pieces of b, which sits at off in src, into the
// piece list at rune position pos, and returns b's rune count. A first
// piece that lands right after a piece it is contiguous with in the same
// buffer merges into it when the piece rule allows (typing, journal
// replay, replication fan-out and streamed loads all produce such runs);
// otherwise the pieces open a slot, splitting the piece that holds pos.
func (d *Data) spliceIn(pos int, src pieceSrc, off int, b []byte) int {
	var lbuf [3]int
	var pbuf [3]piece
	lens, ps := lbuf[:0], pbuf[:0]
	var n int
	it, po := d.pieceAt(pos) // the end for an append
	i := it.Index()
	if po > 0 {
		p := it.Val()
		bo := byteOff(d.bytesOf(p), it.Len(), po)
		lens, ps = append(lens, po), append(ps, piece{p.src, p.off, bo})
		lens, ps, n = appendPieces(lens, ps, src, off, b)
		lens, ps = append(lens, it.Len()-po), append(ps, piece{p.src, p.off + bo, p.size - bo})
		d.pieces.Replace(i, i+1, lens, ps)
		return n
	}
	lens, ps, n = appendPieces(lens, ps, src, off, b)
	if i > 0 {
		prev := it
		prev.Prev()
		if p := prev.Val(); mergeable(p, prev.Len(), ps[0], lens[0]) {
			lens[0] += prev.Len()
			ps[0] = piece{p.src, p.off, p.size + ps[0].size}
			d.pieces.Replace(i-1, i, lens, ps)
			return n
		}
	}
	d.pieces.Replace(i, i, lens, ps)
	return n
}

// spliceOut removes the rune range [pos, pos+n), n > 0, from the piece
// list: the pieces it touches give way to the remainders of the first
// and last of them. Bytes cut from the end of the add buffer go back to
// it, so a Backspace after typing leaves no dead byte and the next
// keystroke extends the same piece. That is safe because an add byte
// belongs to at most one piece, cursors re-seek on the generation bump,
// and undo records, the journal and ops carry strings.
func (d *Data) spliceOut(pos, n int) {
	end := pos + n
	a, b := d.pieces.Find(pos), d.pieces.Find(end-1)
	var lens [2]int
	var ps [2]piece
	k := 0
	if pos > a.Start() { // left remainder of the first piece
		p := a.Val()
		lens[k], ps[k] = pos-a.Start(), piece{p.src, p.off, byteOff(d.bytesOf(p), a.Len(), pos-a.Start())}
		k++
	}
	p := b.Val()
	if b.End() > end { // right remainder of the last piece
		bo := byteOff(d.bytesOf(p), b.Len(), end-b.Start())
		lens[k], ps[k] = b.End()-end, piece{p.src, p.off + bo, p.size - bo}
		k++
	} else if p.src == srcAdd && p.off+p.size == len(d.add) {
		d.add = d.add[:p.off+byteOff(d.bytesOf(p), b.Len(), max(pos, b.Start())-b.Start())]
	}
	d.pieces.Replace(a.Index(), b.Index()+1, lens[:k], ps[:k])
}

// Delete removes [pos, pos+n). Embedded components inside the range are
// dropped from the embed list.
func (d *Data) Delete(pos, n int) error {
	d.ensureLoaded()
	if pos < 0 || n < 0 || pos+n > d.length {
		return fmt.Errorf("%w: delete [%d,%d) of %d", ErrRange, pos, pos+n, d.length)
	}
	if n == 0 {
		return nil
	}
	if !d.inUndo && !d.noUndo {
		// Capturing the deleted text (d.Slice) is itself an allocation;
		// skip the whole capture when journaling is off, not just the
		// record() call — replication replay runs with undo suspended.
		op := editOp{kind: opDelete, pos: pos, text: d.Slice(pos, pos+n)}
		for _, e := range d.embeds {
			if e.Pos >= pos && e.Pos < pos+n {
				op.embeds = append(op.embeds, &Embedded{Pos: e.Pos, Obj: e.Obj, ViewName: e.ViewName})
			}
		}
		d.record(op)
	}
	d.spliceOut(pos, n)
	d.length -= n
	d.bump()
	d.noteDelete(pos, n)
	d.shiftForDelete(pos, n)
	d.logEdit(EditRecord{Kind: RecDelete, Pos: pos, N: n})
	d.NotifyObservers(core.Change{Kind: "delete", Pos: pos, Length: n})
	return nil
}

// Embed inserts obj at pos, displayed by viewName (empty means the
// object's default view).
func (d *Data) Embed(pos int, obj core.DataObject, viewName string) error {
	if obj == nil {
		return fmt.Errorf("text: nil object embedded")
	}
	if viewName == "" {
		viewName = obj.DefaultViewName()
	}
	// Journal the embed as one composite op (anchor + record) so redo
	// restores the record along with the anchor rune.
	suppress := d.inUndo
	d.inUndo = true
	err := d.insertText(pos, string(AnchorRune), "child")
	d.inUndo = suppress
	if err != nil {
		return err
	}
	e := &Embedded{Pos: pos, Obj: obj, ViewName: viewName}
	d.embeds = append(d.embeds, e)
	sort.Slice(d.embeds, func(i, j int) bool { return d.embeds[i].Pos < d.embeds[j].Pos })
	d.record(editOp{kind: opEmbed, pos: pos, text: string(AnchorRune),
		embeds: []*Embedded{{Pos: pos, Obj: obj, ViewName: viewName}}})
	return nil
}

// EmbeddedAt returns the embedded component whose anchor is at pos, nil if
// none.
func (d *Data) EmbeddedAt(pos int) *Embedded {
	for _, e := range d.embeds {
		if e.Pos == pos {
			return e
		}
	}
	return nil
}

// shiftForInsert moves anchors and style runs right of pos. A run
// strictly containing pos grows (text typed inside a bold run stays
// bold); a run ending exactly at pos does not.
func (d *Data) shiftForInsert(pos, n int) {
	for _, e := range d.embeds {
		if e.Pos >= pos {
			e.Pos += n
		}
	}
	for i := range d.runs {
		r := &d.runs[i]
		if r.Start >= pos {
			r.Start += n
		}
		if r.End > pos {
			r.End += n
		}
	}
}

// shiftForDelete clamps anchors and style runs over a deleted range.
func (d *Data) shiftForDelete(pos, n int) {
	end := pos + n
	keep := d.embeds[:0]
	for _, e := range d.embeds {
		switch {
		case e.Pos < pos:
			keep = append(keep, e)
		case e.Pos >= end:
			e.Pos -= n
			keep = append(keep, e)
		}
	}
	d.embeds = keep
	outRuns := d.runs[:0]
	for _, r := range d.runs {
		r.Start = clampDel(r.Start, pos, end, n)
		r.End = clampDel(r.End, pos, end, n)
		if r.Start < r.End {
			outRuns = append(outRuns, r)
		}
	}
	d.runs = outRuns
}

func clampDel(x, pos, end, n int) int {
	switch {
	case x <= pos:
		return x
	case x >= end:
		return x - n
	default:
		return pos
	}
}

// Index returns the first occurrence of sub at or after from, or -1. The
// search sees anchors as AnchorRune. It iterates the buffer through a
// cursor, so a search never materializes an O(n) copy of the document.
func (d *Data) Index(sub string, from int) int {
	if from < 0 {
		from = 0
	}
	pat := []rune(sub)
	m := len(pat)
	if m == 0 {
		return from
	}
	if from+m > d.length {
		return -1
	}
	c := d.Cursor(from)
	probe := d.Cursor(from)
	for start := from; start+m <= d.length; start++ {
		r, _ := c.Next()
		if r != pat[0] {
			continue
		}
		if m == 1 {
			return start
		}
		probe.Seek(start + 1)
		match := true
		for j := 1; j < m; j++ {
			rr, _ := probe.Next()
			if rr != pat[j] {
				match = false
				break
			}
		}
		if match {
			return start
		}
	}
	return -1
}

// WordAt returns the word boundaries around pos (letters and digits).
func (d *Data) WordAt(pos int) (start, end int) {
	isWord := func(r rune) bool {
		return r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
	}
	start, end = pos, pos
	if pos < 0 || pos > d.length {
		return start, end
	}
	c := d.Cursor(pos)
	for start > 0 {
		r, ok := c.Prev()
		if !ok || !isWord(r) {
			break
		}
		start--
	}
	c.Seek(pos)
	for end < d.length {
		r, ok := c.Next()
		if !ok || !isWord(r) {
			break
		}
		end++
	}
	return start, end
}

// LineStart returns the position just after the previous newline, in
// O(log L) via the newline index.
func (d *Data) LineStart(pos int) int {
	if pos <= 0 || pos > d.length {
		return pos
	}
	return d.lineAt(pos).Start()
}

// LineEnd returns the position of the next newline (or Len), in
// O(log L) via the newline index.
func (d *Data) LineEnd(pos int) int {
	if pos < 0 || pos >= d.length {
		return pos
	}
	if ln := d.lineAt(pos); ln.Index() < d.lines.Len()-1 {
		return ln.End() - 1
	}
	return d.length
}

// PieceCount exposes fragmentation for benchmarks.
func (d *Data) PieceCount() int { return d.pieces.Len() }

// Compact rebuilds the buffer into one original buffer, shedding
// fragmentation accumulated by editing. Rune positions are unchanged, so
// the newline index survives; the piece index and outstanding cursors
// re-seek.
func (d *Data) Compact() {
	d.ensureLoaded()
	d.setStore(d.copyBytes(0, d.length))
}
