package text

import (
	"fmt"
	"slices"

	"atk/internal/core"
	"atk/internal/datastream"
)

// A Capture is what WritePayload reads of a text object without embedded
// components, copied at one moment: its bytes, its style runs, and the
// style definitions they declare. Taking one costs a copy of the bytes
// and the runs, with no piece store or newline index built, so a holder
// of a lock can take it under the lock and encode it after releasing it.
type Capture struct {
	content []byte
	defs    []StyleDef
	runs    []Run
}

// Capture copies what WritePayload reads of d. ok is false when d embeds
// components: those are live objects a copy would share, not freeze, so
// such a document must be encoded while nothing else can change it.
func (d *Data) Capture() (c *Capture, ok bool) {
	d.ensureLoaded()
	if len(d.embeds) > 0 {
		return nil, false
	}
	return &Capture{content: d.copyBytes(0, d.length), defs: d.styleDefs(), runs: slices.Clone(d.runs)}, true
}

// TypeName is the type of the text the capture was taken from.
func (c *Capture) TypeName() string { return "text" }

// ByteLen returns the length of the captured text in UTF-8 bytes.
func (c *Capture) ByteLen() int { return len(c.content) }

// Runs returns the captured style runs (read-only).
func (c *Capture) Runs() []Run { return c.runs }

// WritePayload writes what the text's WritePayload wrote when c was
// taken.
func (c *Capture) WritePayload(w *datastream.Writer) error {
	if err := writeStyles(w, c.defs, c.runs); err != nil {
		return err
	}
	if len(c.content) == 0 {
		return nil
	}
	_ = w.WriteBytes(c.content)
	return w.EndText()
}

// Extract returns a new text object holding a copy of [start,end):
// content, style runs (clipped and shifted), and embedded components.
// Embedded data objects are shared, not deep-copied — extraction is the
// first half of cut/copy, and the clipboard's external representation
// makes the eventual copy when it serializes.
func (d *Data) Extract(start, end int) (*Data, error) {
	d.ensureLoaded()
	if start < 0 || end > d.length || start > end {
		return nil, fmt.Errorf("%w: extract [%d,%d) of %d", ErrRange, start, end, d.length)
	}
	out := New()
	out.reg = d.reg
	// Content, anchors included, copied as bytes through the index.
	out.setContent(d.copyBytes(start, end))
	// Styles: definitions referenced by clipped runs, plus the runs.
	for _, r := range d.runs {
		s, e := max(r.Start, start), min(r.End, end)
		if s >= e {
			continue
		}
		if !out.styles.Has(r.Style) || d.styles.Lookup(r.Style) != out.styles.Lookup(r.Style) {
			_ = out.styles.Define(d.styles.Lookup(r.Style))
		}
		out.runs = append(out.runs, Run{Start: s - start, End: e - start, Style: r.Style})
	}
	// Embeds in range.
	for _, e := range d.embeds {
		if e.Pos >= start && e.Pos < end {
			out.embeds = append(out.embeds, &Embedded{
				Pos: e.Pos - start, Obj: e.Obj, ViewName: e.ViewName,
			})
		}
	}
	return out, nil
}

// InsertData splices a whole text object — content, styles, embeds — into
// d at pos. Style definitions src carries that d lacks are imported.
func (d *Data) InsertData(pos int, src *Data) error {
	if pos < 0 || pos > d.length {
		return fmt.Errorf("%w: insert at %d of %d", ErrRange, pos, d.length)
	}
	if src.Len() == 0 {
		return nil
	}
	// Insert the raw content (anchors included) in one piece-table splice;
	// insertText shifts existing runs and embeds.
	if err := d.insertText(pos, src.String(), "insert"); err != nil {
		return err
	}
	// Import style definitions and graft the runs.
	for _, name := range src.styles.Names() {
		if !d.styles.Has(name) {
			_ = d.styles.Define(src.styles.Lookup(name))
		}
	}
	for _, r := range src.runs {
		d.runs = append(d.runs, Run{Start: r.Start + pos, End: r.End + pos, Style: r.Style})
	}
	sortRuns(d.runs)
	// Graft the embeds.
	for _, e := range src.embeds {
		d.embeds = append(d.embeds, &Embedded{
			Pos: e.Pos + pos, Obj: e.Obj, ViewName: e.ViewName,
		})
	}
	sortEmbeds(d.embeds)
	// The content insertion already notified; announce the grafted
	// styles separately (no position shifting implied by "style").
	d.NotifyObservers(core.Change{Kind: "style", Pos: pos, Length: src.Len()})
	return nil
}

func sortRuns(runs []Run) {
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runs[j].Start < runs[j-1].Start; j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
}

func sortEmbeds(es []*Embedded) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Pos < es[j-1].Pos; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}
