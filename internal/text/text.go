// Package text implements the multi-font text data object, the toolkit's
// flagship component: a piece-table buffer with named-style runs and
// embedded-object anchors. Any other component can be embedded at any
// position; the text object uses the generic mechanism of core, so a
// component type invented years later embeds exactly like a table does
// (the music-department scenario of paper §1).
package text

import (
	"errors"
	"fmt"
	"sort"
	"strings"

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

// piece is a run of one source buffer; its length is its element length
// in Data.pieces.
type piece struct {
	src pieceSrc
	off int
}

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
	orig   []rune
	add    []rune
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
	d.setContent([]rune(s))
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
	p := it.Val()
	return d.src(p.src)[p.off+po], nil
}

func (d *Data) src(s pieceSrc) []rune {
	if s == srcOrig {
		return d.orig
	}
	return d.add
}

// Slice returns the runes in [start,end) as a string; anchors appear as
// AnchorRune. The starting piece is found through the index, so a slice
// near the end of a fragmented buffer does not walk every piece.
func (d *Data) Slice(start, end int) string {
	return string(d.Runes(start, end))
}

// String returns the whole buffer.
func (d *Data) String() string { return d.Slice(0, d.length) }

// Insert places s at pos. An s containing AnchorRune is rejected; anchors
// enter only through Embed.
func (d *Data) Insert(pos int, s string) error {
	if strings.ContainsRune(s, AnchorRune) {
		return fmt.Errorf("text: cannot insert anchor rune directly")
	}
	d.ensureLoaded()
	if pos < 0 || pos > d.length {
		return fmt.Errorf("%w: insert at %d of %d", ErrRange, pos, d.length)
	}
	if s == "" {
		return nil
	}
	// Decode straight into the add buffer: replication and journal replay
	// insert thousands of small strings, and a throwaway []rune(s) per
	// call is measurable garbage on that path.
	off := len(d.add)
	for _, r := range s {
		d.add = append(d.add, r)
	}
	return d.insertPlaced(pos, off, s, "insert")
}

func (d *Data) insertRunes(pos int, rs []rune, kind string) error {
	d.ensureLoaded()
	if pos < 0 || pos > d.length {
		return fmt.Errorf("%w: insert at %d of %d", ErrRange, pos, d.length)
	}
	if len(rs) == 0 {
		return nil
	}
	off := len(d.add)
	d.add = append(d.add, rs...)
	return d.insertPlaced(pos, off, string(rs), kind)
}

// insertPlaced finishes an insert whose runes already sit in the add
// buffer at [off, len(d.add)): splice, indexes, undo, journal, notify.
// s is the same content as a string (callers usually have it for free).
func (d *Data) insertPlaced(pos, off int, s, kind string) error {
	rs := d.add[off:len(d.add):len(d.add)]
	n := len(rs)
	if !d.inUndo && !d.noUndo {
		d.record(editOp{kind: opInsert, pos: pos, text: s})
	}
	d.spliceIn(pos, n, piece{srcAdd, off})
	d.length += n
	d.bump()
	d.noteInsert(pos, rs)
	d.shiftForInsert(pos, n)
	if d.editLog != nil {
		// An insert carrying anchor runes (Embed, redo of a deletion that
		// had embeds) drags live objects the journal cannot serialize.
		if hasAnchor(rs) {
			d.logEdit(EditRecord{Kind: RecReset, Text: "embedded component"})
		} else {
			d.logEdit(EditRecord{Kind: RecInsert, Pos: pos, Text: s})
		}
	}
	d.NotifyObservers(core.Change{Kind: kind, Pos: pos, Length: n})
	return nil
}

func hasAnchor(rs []rune) bool {
	for _, r := range rs {
		if r == AnchorRune {
			return true
		}
	}
	return false
}

// setContent replaces the buffer with content as one original piece
// and rebuilds the newline index: the initialization path (NewString,
// ReadPayload, Extract). Styles and embeds are the caller's.
func (d *Data) setContent(content []rune) {
	d.orig, d.add, d.length = content, nil, len(content)
	d.pieces.Reset()
	if len(content) > 0 {
		d.pieces.Append(len(content), piece{srcOrig, 0})
	}
	d.bump()
	d.resetLines()
	d.noteInsert(0, content)
}

// spliceIn splices the n-rune piece np into the piece list at rune
// position pos. A piece that lands right after a piece of the same
// buffer it is contiguous with merges into it (typing, journal replay,
// replication fan-out and streamed loads all produce such runs);
// otherwise it opens a slot, splitting the piece that holds pos.
func (d *Data) spliceIn(pos, n int, np piece) {
	it, po := d.pieceAt(pos) // the end for an append
	i := it.Index()
	if po > 0 {
		p := it.Val()
		d.pieces.Replace(i, i+1, []int{po, n, it.Len() - po}, []piece{p, np, {p.src, p.off + po}})
		return
	}
	if i > 0 {
		prev := it
		prev.Prev()
		if p := prev.Val(); p.src == np.src && p.off+prev.Len() == np.off {
			d.pieces.Replace(i-1, i, []int{prev.Len() + n}, []piece{p})
			return
		}
	}
	d.pieces.Replace(i, i, []int{n}, []piece{np})
}

// spliceOut removes the rune range [pos, pos+n), n > 0, from the piece
// list: the pieces it touches give way to the remainders of the first
// and last of them.
func (d *Data) spliceOut(pos, n int) {
	end := pos + n
	a, b := d.pieces.Find(pos), d.pieces.Find(end-1)
	var lens [2]int
	var ps [2]piece
	k := 0
	if pos > a.Start() { // left remainder of the first piece
		lens[k], ps[k] = pos-a.Start(), a.Val()
		k++
	}
	if b.End() > end { // right remainder of the last piece
		p := b.Val()
		lens[k], ps[k] = b.End()-end, piece{p.src, p.off + end - b.Start()}
		k++
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
	err := d.insertRunes(pos, []rune{AnchorRune}, "child")
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

// Compact rebuilds the buffer into a single piece, shedding fragmentation
// accumulated by editing. Rune positions are unchanged, so the newline
// index survives; the piece index and outstanding cursors re-seek.
func (d *Data) Compact() {
	d.ensureLoaded()
	s := d.Runes(0, d.length)
	d.orig = s
	d.add = nil
	d.pieces.Reset()
	if len(s) > 0 {
		d.pieces.Append(len(s), piece{srcOrig, 0})
	}
	d.bump()
}
