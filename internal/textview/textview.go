// Package textview implements the display-based text view of paper §2 — a
// "semi-WYSIWYG" (WYSLRN) editor view on the text data object. It lays out
// multi-font text with wrapping and indents, edits in place, scrolls, and
// displays embedded components inline, delegating events that land on them
// to their views: the embedding behaviour that motivated the toolkit.
package textview

import (
	"strings"

	"atk/internal/chunked"
	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/graphics"
	"atk/internal/text"
)

// clipboard is the process-wide cut buffer shared by all text views, like
// the window system cut buffer of the era.
var clipboard string

// Clipboard returns the current cut-buffer contents.
func Clipboard() string { return clipboard }

// SetClipboard stores s in the cut buffer.
func SetClipboard(s string) { clipboard = s }

// segment is one run of same-font text (or one embedded child) on a line.
type segment struct {
	start, end int // rune range, relative to the line's start
	x, w       int // horizontal placement
	font       *graphics.Font
	child      *text.Embedded // non-nil for an anchor segment
}

// line is one laid-out line as the line table holds it. Its rune range
// is not stored: the table derives it from the lengths of the lines
// before it (a line's length runs through its newline, if any), and its
// segments are relative to its start, so an edit never rewrites the
// lines after it.
type line struct {
	nl        bool // ends at a hard newline
	h, ascent int
	indent    int
	segs      []segment
}

// placed is a line read from the table, with its rune range.
type placed struct {
	start, end int // rune range, end excludes the newline
	nlEnd      int // end including the newline if present
	line
}

// placedAt reads the line at it.
func placedAt(it chunked.Iter[line]) placed {
	ln := placed{start: it.Start(), end: it.End(), nlEnd: it.End(), line: it.Val()}
	if ln.nl {
		ln.end--
	}
	return ln
}

// laid returns laid line i.
func (v *View) laid(i int) placed { return placedAt(v.lines.At(i)) }

// View is the text view. Create with New, attach data with SetDataObject.
type View struct {
	core.BaseView
	reg *class.Registry

	topLine  int
	dot      int // caret position
	mark     int // selection anchor; selection is [min(dot,mark), max)
	dragging bool

	// lines is a laid-out prefix of the document: the first line starts
	// at rune 0 and consecutive lines are contiguous, so lines.Total() is
	// the frontier. When complete is false the prefix stops there and
	// extendOne lays further lines on demand (the viewport-lazy contract;
	// see DESIGN.md §8). layoutW is the width the prefix was laid at;
	// dirty forces a discard before the next use.
	lines    chunked.Seq[line]
	layoutW  int
	dirty    bool
	complete bool

	children map[*text.Embedded]core.View
	rects    map[*text.Embedded]graphics.Rect // local rects of visible children

	readOnly bool
	// noIncremental disables the single-line damage-repair path, forcing
	// every edit through full relayout + whole-bounds damage (benchmark
	// and debugging toggle; the zero value keeps incremental repaint on).
	noIncremental bool
	// lastSearch remembers the pattern for SearchAgain.
	lastSearch string
	// Inserted counts runes typed (benchmark instrumentation).
	Inserted int64
}

// New returns an unattached text view using reg to instantiate embedded
// component views (nil means class.Default).
func New(reg *class.Registry) *View {
	v := &View{
		reg:      reg,
		children: make(map[*text.Embedded]core.View),
		rects:    make(map[*text.Embedded]graphics.Rect),
		dirty:    true,
	}
	v.InitView(v, "textview")
	return v
}

func (v *View) registry() *class.Registry {
	if v.reg != nil {
		return v.reg
	}
	return class.Default
}

// Text returns the attached text data object, or nil.
func (v *View) Text() *text.Data {
	d, _ := v.DataObject().(*text.Data)
	return d
}

// SetReadOnly disables editing (used by help and mail readers).
func (v *View) SetReadOnly(ro bool) { v.readOnly = ro }

// Dot returns the caret position.
func (v *View) Dot() int { return v.dot }

// SetDot places the caret (collapsing the selection) and repaints.
func (v *View) SetDot(pos int) {
	pos = v.clampPos(pos)
	v.dot, v.mark = pos, pos
	v.WantUpdate(v.Self())
}

// Selection returns the selected range (start <= end; empty when equal).
func (v *View) Selection() (int, int) {
	if v.dot < v.mark {
		return v.dot, v.mark
	}
	return v.mark, v.dot
}

// SetSelection selects [start,end) and places the caret at end.
func (v *View) SetSelection(start, end int) {
	v.mark, v.dot = v.clampPos(start), v.clampPos(end)
	v.WantUpdate(v.Self())
}

func (v *View) clampPos(pos int) int {
	d := v.Text()
	if d == nil || pos < 0 {
		return 0
	}
	if pos > d.Len() {
		return d.Len()
	}
	return pos
}

// SetIncremental toggles the incremental damage path (on by default).
// With it off, every edit invalidates the whole layout and repaints the
// full view — the pre-damage-region behaviour.
func (v *View) SetIncremental(on bool) { v.noIncremental = !on }

// ObservedChanged implements core.View: adjust the caret across the
// edit, then either repair the layout in place and post line-rect damage
// (a confined single-line edit) or mark the layout stale and fall back
// to whole-bounds damage (the delayed-update contract either way: no
// drawing happens here).
func (v *View) ObservedChanged(obj core.DataObject, ch core.Change) {
	switch ch.Kind {
	case "insert", "child":
		if v.dot >= ch.Pos {
			v.dot += ch.Length
		}
		if v.mark >= ch.Pos {
			v.mark += ch.Length
		}
	case "delete":
		v.dot = shrinkAcross(v.dot, ch.Pos, ch.Length)
		v.mark = shrinkAcross(v.mark, ch.Pos, ch.Length)
	case "load":
		// A streamed document faulted in content at its end (ch.Pos is the
		// old length). The laid prefix is untouched; only lines that ended
		// exactly at the old end may continue differently, so drop them and
		// reopen the frontier instead of discarding the whole layout.
		if !v.dirty {
			first := v.lines.Find(ch.Pos - 1).Index() // first line reaching ch.Pos
			v.lines.Replace(first, v.lines.Len(), nil, nil)
			v.complete = false
		}
		v.WantUpdate(v.Self())
		return
	}
	v.dot, v.mark = v.clampPos(v.dot), v.clampPos(v.mark)
	if r, ok := v.repairLine(ch); ok {
		// Layout repaired in place: only the edited line's strip needs
		// repainting — nothing at all when it is scrolled out of view.
		if !r.Empty() {
			v.WantUpdateRegion(v.Self(), graphics.RectRegion(r))
		}
		return
	}
	if v.resyncRepair(ch) {
		// The line table was spliced in place; heights may have changed,
		// so repaint the whole view, but no full relayout is scheduled.
		v.WantUpdate(v.Self())
		return
	}
	v.dirty = true
	v.WantUpdate(v.Self())
}

// repairLine attempts the incremental layout repair for a confined
// single-line insert or delete: re-lay just the edited line and, when
// its boundaries and height are preserved, replace it in the line table
// (later lines' positions follow from its new length). It returns the
// local rectangle to repaint and whether the repair succeeded; on
// failure the caller tries resyncRepair.
func (v *View) repairLine(ch core.Change) (graphics.Rect, bool) {
	if v.noIncremental || v.dirty || v.lines.Len() == 0 || v.layoutW != v.Bounds().Dx() {
		return graphics.Rect{}, false
	}
	d := v.Text()
	if d == nil {
		return graphics.Rect{}, false
	}
	var delta int
	switch ch.Kind {
	case "insert":
		delta = ch.Length
		// Undo of a deletion that carried embeds notifies "insert" before
		// the embed records are restored; laying the anchors out now would
		// bind them to nil children. Leave it to the lazy path.
		if anchorIn(d, ch.Pos, ch.Pos+ch.Length) {
			return graphics.Rect{}, false
		}
	case "delete":
		delta = -ch.Length
	default:
		return graphics.Rect{}, false
	}
	// Locate the edited line in the pre-edit table. Edits at the very end
	// of the buffer (and any edit touching the last line) can add or
	// remove the trailing empty line, which a splice cannot express — let
	// relayout handle the last line.
	li := v.findLine(ch.Pos)
	if li >= v.lines.Len()-1 {
		return graphics.Rect{}, false
	}
	it := v.lines.At(li)
	old := placedAt(it)
	if ch.Kind == "delete" && ch.Pos+ch.Length > old.end {
		return graphics.Rect{}, false // spans the newline or the next line
	}
	// An edit at the start of a line that continues a wrapped previous
	// line can re-flow that previous line; only a hard newline isolates.
	if li > 0 {
		it.Prev()
		if !it.Val().nl {
			return graphics.Rect{}, false
		}
	}
	for _, s := range old.segs {
		if s.child != nil {
			return graphics.Rect{}, false // embedded children move: full path
		}
	}
	w := v.layoutW
	newLn := v.layoutLine(d, old.start, w)
	// The repair holds only if the line still covers exactly the shifted
	// rune range at the same height: no re-wrap spilled into neighbours.
	if newLn.nlEnd != old.nlEnd+delta || newLn.h != old.h {
		return graphics.Rect{}, false
	}
	for _, s := range newLn.segs {
		if s.child != nil {
			return graphics.Rect{}, false
		}
	}
	v.lines.Replace(li, li+1, []int{newLn.nlEnd - newLn.start}, []line{newLn.line})
	y, ok := v.lineTop(li)
	if !ok {
		return graphics.Rect{}, true // scrolled out of the viewport
	}
	return graphics.XYWH(0, y, v.Bounds().Dx(), min(old.h, v.Bounds().Dy()-y)), true
}

// lineTop returns the local y of line li's top, and false when the line
// is scrolled out of the viewport.
func (v *View) lineTop(li int) (int, bool) {
	if li < v.topLine {
		return 0, false
	}
	y, h := 2, v.Bounds().Dy()
	for it := v.lines.At(v.topLine); it.Index() < li && y < h; it.Next() {
		y += it.Val().h
	}
	return y, y < h
}

// findLine returns the index of the laid line that holds pos: the first
// line ending past it, or ending at it without a newline (the caret after
// a wrapped line's last rune stays on that line). It returns lines.Len()
// when pos lies beyond the laid prefix.
func (v *View) findLine(pos int) int {
	it := v.lines.Find(pos - 1) // the first line reaching pos
	if it.Ok() && it.End() == pos && it.Val().nl {
		it.Next()
	}
	return it.Index()
}

// anchorIn reports whether [start,end) contains an embed anchor rune.
func anchorIn(d *text.Data, start, end int) bool {
	c := d.Cursor(start)
	for c.Pos() < end {
		r, ok := c.Next()
		if !ok {
			return false
		}
		if r == text.AnchorRune {
			return true
		}
	}
	return false
}

func shrinkAcross(x, pos, n int) int {
	switch {
	case x <= pos:
		return x
	case x >= pos+n:
		return x - n
	default:
		return pos
	}
}

// --- layout ---

// layoutSlackLines is how many display lines past the bottom of the
// viewport the lazy layout keeps warm, so small scrolls repaint without
// extending the line table.
const layoutSlackLines = 8

// syncLayout discards stale layout state (explicit invalidation or a
// width change). It lays nothing out itself — extendOne does that on
// demand.
func (v *View) syncLayout() {
	w := v.Bounds().Dx()
	if w <= 0 {
		w = 1
	}
	d := v.Text()
	if v.dirty || v.layoutW != w || d == nil {
		v.lines.Reset()
		v.complete = d == nil
		v.layoutW = w
		// With no data object there is nothing to lay out; stay dirty so
		// a later attachment starts fresh.
		v.dirty = d == nil
	}
}

// extendOne lays the next display line at the frontier, reproducing the
// from-scratch layout loop exactly: a trailing newline yields one final
// empty line, and an empty document yields a single empty line. It
// reports false once the layout is complete.
func (v *View) extendOne(d *text.Data, w int) bool {
	if v.complete {
		return false
	}
	v.faultAhead(d)
	pos := v.lines.Total()
	ln := v.layoutLine(d, pos, w)
	v.lines.Append(ln.nlEnd-pos, ln.line)
	switch {
	case ln.nlEnd == pos:
		// No progress: the empty terminal line (empty document, or the
		// line a trailing newline opens).
		v.complete = true
	case ln.nlEnd == d.Len():
		// Reached the end; a trailing newline still owes one empty line.
		if r, err := d.RuneAt(ln.nlEnd - 1); err != nil || r != '\n' {
			v.complete = true
		}
	}
	return true
}

// loadHorizonRunes is how much loaded content the layout keeps ahead of
// its frontier in a streamed document, so a display line never ends at a
// chunk boundary artificially (one display line is bounded by the view
// width, far under this horizon).
const loadHorizonRunes = 4096

// faultAhead pulls chunks of a streamed document in until the loaded
// content runs a horizon past the layout frontier (or the tail is
// exhausted). This is where open-without-loading meets the viewport-lazy
// layout: scrolling faults in exactly the chunks the frontier reaches.
func (v *View) faultAhead(d *text.Data) {
	if !d.Pending() {
		return
	}
	for d.Pending() && d.Len()-v.lines.Total() < loadHorizonRunes {
		if d.LoadMore() != nil {
			break
		}
		// The load notification may have reopened the frontier line;
		// the loop re-reads the frontier each pass.
	}
}

// ensureLayout materializes the full line table — the pre-lazy contract,
// used by everything that needs the total line count (Lines, ScrollInfo,
// ScrollTo, DesiredSize).
func (v *View) ensureLayout() {
	v.syncLayout()
	d := v.Text()
	if d == nil {
		return
	}
	for !v.complete {
		v.extendOne(d, v.layoutW)
	}
	if v.topLine > v.lines.Len()-1 {
		v.topLine = max(0, v.lines.Len()-1)
	}
}

// ensureViewport lays out only through the visible window plus slack:
// the paint-path entry point, proportional to the viewport rather than
// the document.
func (v *View) ensureViewport() {
	v.syncLayout()
	d := v.Text()
	if d == nil {
		return
	}
	w := v.layoutW
	for !v.complete && v.lines.Len() <= v.topLine {
		v.extendOne(d, w)
	}
	h := v.Bounds().Dy()
	y := 2
	i := v.topLine
	for y < h {
		for !v.complete && v.lines.Len() <= i {
			v.extendOne(d, w)
		}
		if i >= v.lines.Len() {
			break
		}
		y += v.lines.At(i).Val().h
		i++
	}
	for !v.complete && v.lines.Len() < i+layoutSlackLines {
		v.extendOne(d, w)
	}
	if v.complete && v.topLine > v.lines.Len()-1 {
		v.topLine = max(0, v.lines.Len()-1)
	}
}

// ensureLine extends the layout until line index li exists (or the
// layout completes short of it).
func (v *View) ensureLine(li int) {
	v.syncLayout()
	d := v.Text()
	if d == nil {
		return
	}
	for !v.complete && v.lines.Len() <= li {
		v.extendOne(d, v.layoutW)
	}
}

// ensurePos extends the layout until the line containing pos exists.
func (v *View) ensurePos(pos int) {
	v.syncLayout()
	d := v.Text()
	if d == nil {
		return
	}
	for !v.complete && (v.lines.Len() == 0 || v.lines.Total() <= pos) {
		v.extendOne(d, v.layoutW)
	}
}

// LayoutViewport primes the viewport-lazy layout for the current scroll
// position — what painting does implicitly. Exposed for benchmarks and
// embedding hosts that want layout cost paid before the update cycle.
func (v *View) LayoutViewport() { v.ensureViewport() }

// LayoutComplete reports whether the whole document is laid out
// (diagnostics and tests).
func (v *View) LayoutComplete() bool { return v.complete }

// InvalidateLayout discards the line table so the next use lays out from
// scratch (benchmark and debugging hook).
func (v *View) InvalidateLayout() { v.dirty = true }

// resyncRepair is the general incremental repair: relay lines from the
// edited line's hard start until a laid line boundary coincides with a
// pre-edit line boundary beyond the edit (or the relay reaches the end of
// the document or the laid frontier), then replace the relaid lines in
// the table; the lines after them keep their layout, and their positions
// follow from the new lengths. Layout from a position depends only on the
// buffer suffix from that position, so a boundary match guarantees the
// surviving tail is exactly what a full relayout would produce. Returns
// false when the caller must fall back to a full discard (style changes,
// embeds in flight, stale layout).
func (v *View) resyncRepair(ch core.Change) bool {
	if v.noIncremental || v.dirty || v.lines.Len() == 0 {
		return false
	}
	w := v.Bounds().Dx()
	if w <= 0 {
		w = 1
	}
	if v.layoutW != w {
		return false
	}
	d := v.Text()
	if d == nil {
		return false
	}
	var delta int
	switch ch.Kind {
	case "insert":
		delta = ch.Length
		// Same embed-in-flight hazard as repairLine: wait for the records.
		if anchorIn(d, ch.Pos, ch.Pos+ch.Length) {
			return false
		}
	case "delete":
		delta = -ch.Length
	default:
		// "child" embeds notify before their record lands; "style" and
		// "full" invalidate fonts wholesale.
		return false
	}
	// Locate the edited line; edits past the laid-out frontier leave the
	// prefix untouched.
	li := v.findLine(ch.Pos)
	if li == v.lines.Len() {
		return !v.complete
	}
	// Step back to a hard line start: wrap positions depend on content
	// from the paragraph's hard start, so that is the safe relay point.
	it := v.lines.At(li)
	for it.Index() > 0 {
		prev := it
		prev.Prev()
		if prev.Val().nl {
			break
		}
		it = prev
	}
	li = it.Index()
	oldMin := ch.Pos
	if delta < 0 {
		oldMin = ch.Pos + ch.Length
	}
	var lens []int
	var repl []line
	pos := it.Start()
	old := it // walks the pre-edit table, which stays intact until the end
	resynced := false
	done := false
	for {
		ln := v.layoutLine(d, pos, w)
		// Lines carrying embedded children re-measure views during
		// layout; keep that on the lazy path.
		for _, s := range ln.segs {
			if s.child != nil {
				return false
			}
		}
		lens = append(lens, ln.nlEnd-pos)
		repl = append(repl, ln.line)
		if ln.nlEnd == pos {
			done = true
		} else if ln.nlEnd == d.Len() {
			if r, err := d.RuneAt(ln.nlEnd - 1); err != nil || r != '\n' {
				done = true
			}
		}
		if done {
			break
		}
		pos = ln.nlEnd
		if pos == d.Len() {
			// At EOF with a trailing newline: the terminal empty line is
			// owed next. No resync here — whether the document ends in a
			// newline is exactly what an EOF boundary match cannot see.
			continue
		}
		// Resync: does this boundary coincide with a pre-edit line
		// boundary past the edited range?
		b := ln.nlEnd - delta
		for old.Ok() && old.End() < b {
			old.Next()
		}
		if old.Ok() && old.End() == b && b >= oldMin {
			resynced = true
			break
		}
		if !old.Ok() && !v.complete {
			// Ran past the frontier of an incomplete prefix: the new
			// lines simply become the new frontier.
			break
		}
	}
	if resynced {
		v.lines.Replace(li, old.Index()+1, lens, repl)
	} else {
		// Relaid through the end of the document, or to the frontier: the
		// new lines replace everything from the damage on.
		v.lines.Replace(li, v.lines.Len(), lens, repl)
		v.complete = v.complete || done
	}
	if v.complete && v.topLine > v.lines.Len()-1 {
		v.topLine = max(0, v.lines.Len()-1)
	}
	return true
}

// layoutLine lays out one display line starting at pos. It iterates with
// a single rune cursor and a single cached style span — one O(log k)
// seek and then amortized O(1) per rune, instead of the O(pieces) RuneAt
// and O(runs) StyleSpan per rune of the original.
func (v *View) layoutLine(d *text.Data, pos, width int) placed {
	styleDef := d.Styles().Lookup(d.StyleAt(pos))
	ln := placed{start: pos, line: line{indent: styleDef.Indent}}
	x := styleDef.Indent
	lastBreak := -1
	cur := pos
	minFont := graphics.Open(styleDef.Font)
	ln.h, ln.ascent = minFont.Height(), minFont.Ascent()

	flushSeg := func(segStart, segEnd int, f *graphics.Font, startX int) {
		if segEnd > segStart {
			ln.segs = append(ln.segs, segment{
				start: segStart - pos, end: segEnd - pos, x: startX,
				w: 0, font: f,
			})
		}
	}

	segStart, segStartX := pos, x
	var segFont *graphics.Font
	c := d.Cursor(pos)
	// Style runs can overlap after InsertData grafts, so the linear
	// StyleSpan stays the oracle; its answer is valid through spanEnd,
	// letting us query once per span instead of once per rune.
	spanEnd := pos
	var f *graphics.Font
	for cur < d.Len() {
		if cur >= spanEnd {
			var styleName string
			_, spanEnd, styleName = d.StyleSpan(cur)
			f = graphics.Open(d.Styles().Lookup(styleName).Font)
		}
		if segFont == nil {
			segFont = f
		}
		if f != segFont {
			flushSeg(segStart, cur, segFont, segStartX)
			segStart, segStartX, segFont = cur, x, f
		}
		r, ok := c.Next()
		if !ok {
			break
		}
		if r == '\n' {
			flushSeg(segStart, cur, segFont, segStartX)
			ln.end = cur
			ln.nlEnd = cur + 1
			ln.nl = true
			v.growLine(&ln.line, segFont)
			return ln
		}
		if r == text.AnchorRune {
			// Embedded component: give it its desired size within the
			// remaining width.
			e := d.EmbeddedAt(cur)
			flushSeg(segStart, cur, segFont, segStartX)
			cw, chh := v.childSize(e, width-x)
			ln.segs = append(ln.segs, segment{start: cur - pos, end: cur + 1 - pos, x: x, w: cw, child: e})
			if chh > ln.h {
				ln.ascent += chh - ln.h
				ln.h = chh
			}
			x += cw
			cur++
			segStart, segStartX = cur, x
			lastBreak = cur
			continue
		}
		rw := segFont.RuneWidth(r)
		if x+rw > width && cur > ln.start {
			// Wrap: prefer the last space.
			if lastBreak > ln.start {
				flushSeg(segStart, lastBreak, segFont, segStartX)
				trimTrailing(&ln.line, lastBreak-pos)
				ln.end, ln.nlEnd = lastBreak, lastBreak
			} else {
				flushSeg(segStart, cur, segFont, segStartX)
				ln.end, ln.nlEnd = cur, cur
			}
			v.growLine(&ln.line, segFont)
			return ln
		}
		if r == ' ' || r == '\t' {
			lastBreak = cur + 1
		}
		x += rw
		cur++
		if f.Height() > ln.h {
			ln.ascent = f.Ascent()
			ln.h = f.Height()
		}
	}
	flushSeg(segStart, cur, segFont, segStartX)
	ln.end, ln.nlEnd = cur, cur
	v.growLine(&ln.line, segFont)
	return ln
}

func trimTrailing(ln *line, brk int) {
	// Drop segments (or parts) past the break point (relative to the
	// line's start, like the segments).
	out := ln.segs[:0]
	for _, s := range ln.segs {
		if s.start >= brk {
			continue
		}
		if s.end > brk {
			s.end = brk
		}
		out = append(out, s)
	}
	ln.segs = out
}

func (v *View) growLine(ln *line, f *graphics.Font) {
	for _, s := range ln.segs {
		if s.child == nil && s.font != nil && s.font.Height() > ln.h {
			ln.h = s.font.Height()
			ln.ascent = s.font.Ascent()
		}
	}
	if ln.h < 4 {
		ln.h = 4
	}
}

// childSize returns the embedded child's size, creating its view on first
// use (demand-loading the view class if necessary).
func (v *View) childSize(e *text.Embedded, availW int) (int, int) {
	if e == nil {
		return 10, 10
	}
	cv := v.childView(e)
	if cv == nil {
		return 12, 12 // unknown component placeholder box
	}
	if availW < 20 {
		availW = 20
	}
	w, h := cv.DesiredSize(availW, 0)
	if w > availW {
		w = availW
	}
	if w < 8 {
		w = 8
	}
	if h < 8 {
		h = 8
	}
	return w, h
}

// childView returns (creating lazily) the view for an embedded component.
func (v *View) childView(e *text.Embedded) core.View {
	if cv, ok := v.children[e]; ok {
		return cv
	}
	cv, err := core.NewViewFor(v.registry(), e.ViewName, e.Obj)
	if err != nil {
		// No view class: remember the miss so we don't retry every layout.
		v.children[e] = nil
		return nil
	}
	cv.SetParent(v.Self())
	v.children[e] = cv
	return cv
}

// Lines returns the total number of layout lines. This is the one query
// that inherently needs the whole document laid out, so it materializes
// the full layout (the eager half of the viewport-lazy contract; see
// DESIGN.md §8). Paint-path code never calls it.
func (v *View) Lines() int {
	v.ensureLayout()
	return v.lines.Len()
}

// SetBounds implements core.View.
func (v *View) SetBounds(r graphics.Rect) {
	old := v.Bounds()
	v.BaseView.SetBounds(r)
	if old.Dx() != r.Dx() {
		v.dirty = true
	}
}

// DesiredSize implements core.View: text wants whatever width is offered
// and the height of its content.
func (v *View) DesiredSize(wHint, hHint int) (int, int) {
	if wHint <= 0 {
		wHint = 300
	}
	save := v.Bounds()
	v.BaseView.SetBounds(graphics.XYWH(0, 0, wHint, 1))
	v.dirty = true
	v.ensureLayout()
	h := 0
	for it := v.lines.At(0); it.Ok(); it.Next() {
		h += it.Val().h
	}
	v.BaseView.SetBounds(save)
	v.dirty = true
	if hHint > 0 && h > hHint {
		h = hHint
	}
	return wHint, h + 4
}

// visibleLines returns how many lines fit in the view.
func (v *View) visibleLines() int {
	v.ensureViewport()
	h := v.Bounds().Dy()
	n := 0
	for it := v.lines.At(v.topLine); it.Ok() && h > 0; it.Next() {
		h -= it.Val().h
		if h >= 0 {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// ScrollInfo implements widgets.Scrollee. For a streamed document with
// content still unloaded it reports an estimated total (laid lines plus
// the offset index's pending-line count) instead of materializing the
// layout — scrollbar geometry must not force a 100 MB load.
func (v *View) ScrollInfo() (total, top, visible int) {
	if d := v.Text(); d != nil && d.Pending() {
		vis := v.visibleLines()
		return v.lines.Len() + d.PendingLines(), v.topLine, vis
	}
	v.ensureLayout()
	return v.lines.Len(), v.topLine, v.visibleLines()
}

// ScrollTo implements widgets.Scrollee. Scrolling a streamed document
// extends layout (and faults content in) only through the target line.
func (v *View) ScrollTo(top int) {
	if d := v.Text(); d != nil && d.Pending() {
		v.ensureLine(top)
	} else {
		v.ensureLayout()
	}
	if top > v.lines.Len()-1 {
		top = v.lines.Len() - 1
	}
	if top < 0 {
		top = 0
	}
	if top != v.topLine {
		v.topLine = top
		v.WantUpdate(v.Self())
	}
}

// lineOf returns the index of the layout line containing pos, extending
// the lazy layout just far enough to cover it.
func (v *View) lineOf(pos int) int {
	v.ensurePos(pos)
	if li := v.findLine(pos); li < v.lines.Len() {
		return li
	}
	return max(0, v.lines.Len()-1)
}

// RevealDot scrolls so the caret is visible.
func (v *View) RevealDot() {
	li := v.lineOf(v.dot)
	if li < v.topLine {
		v.ScrollTo(li)
	} else if vis := v.visibleLines(); li >= v.topLine+vis {
		v.ScrollTo(li - vis + 1)
	}
}

func (v *View) String() string {
	d := v.Text()
	if d == nil {
		return "textview(empty)"
	}
	s := d.String()
	if len(s) > 24 {
		s = s[:24] + "..."
	}
	return "textview(" + strings.ReplaceAll(s, "\n", "/") + ")"
}

// Tick forwards clock ticks to embedded component views that animate.
func (v *View) Tick(t int64) {
	for _, cv := range v.children {
		if ticker, ok := cv.(interface{ Tick(int64) }); ok && cv != nil {
			ticker.Tick(t)
		}
	}
}
