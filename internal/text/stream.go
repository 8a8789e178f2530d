package text

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/datastream"
	"atk/internal/graphics"
)

// External representation of a text object:
//
//	\begindata{text,1}
//	\begindata{textstyles,2}
//	def quotation andy 12 i 24 0
//	run 5 12 bold
//	\enddata{textstyles,2}
//	...encoded content...
//	\begindata{table,3}...\enddata{table,3}
//	\view{spread,3}
//	...more content...
//	\enddata{text,1}
//
// The optional textstyles block carries non-standard style definitions and
// all style runs; content chunks between embedded objects are written with
// the datastream text encoding, so any runes round-trip.

// Reg is the class registry used to instantiate embedded component types
// during ReadPayload. It defaults to class.Default; tests and applications
// with their own registries may override it per object.
func (d *Data) SetRegistry(reg *class.Registry) { d.reg = reg }

func (d *Data) registry() *class.Registry {
	if d.reg != nil {
		return d.reg
	}
	return class.Default
}

// Registry returns the registry embedded components decode through
// (class.Default when none was set) — replication layers applying
// embed-insert ops need the same registry the document itself uses.
func (d *Data) Registry() *class.Registry { return d.registry() }

// WritePayload implements core.DataObject. The text between embedded
// components goes from the pieces straight into the writer's streaming
// text entry: a save makes no copy of the document.
func (d *Data) WritePayload(w *datastream.Writer) error {
	d.ensureLoaded()
	if err := writeStyles(w, d.styleDefs(), d.runs); err != nil {
		return err
	}
	cursor := 0
	for _, e := range d.embeds {
		if err := d.writeText(w, cursor, e.Pos); err != nil {
			return err
		}
		id, err := core.WriteObject(w, e.Obj)
		if err != nil {
			return err
		}
		if err := w.View(e.ViewName, id); err != nil {
			return err
		}
		cursor = e.Pos + 1 // skip the anchor rune
	}
	return d.writeText(w, cursor, d.length)
}

// writeText writes [start, end) as one text, handing the writer each
// piece's bytes in place; an empty range writes nothing. The writer's
// error is sticky, so EndText reports the first.
func (d *Data) writeText(w *datastream.Writer, start, end int) error {
	if start >= end {
		return nil
	}
	d.eachSpan(start, end, func(b []byte) { _ = w.WriteBytes(b) })
	return w.EndText()
}

// styleDefs returns the definitions the textstyles block declares: every
// style a run references that differs from the stock table, in the order
// the runs first reference them.
func (d *Data) styleDefs() []StyleDef {
	if len(d.runs) == 0 {
		return nil
	}
	var defs []StyleDef
	stock := NewStyleTable()
	seen := map[string]bool{}
	for _, r := range d.runs {
		if seen[r.Style] {
			continue
		}
		seen[r.Style] = true
		def := d.styles.Lookup(r.Style)
		if stock.Has(def.Name) && stock.Lookup(def.Name) == def {
			continue // standard style, implied
		}
		defs = append(defs, def)
	}
	return defs
}

// writeStyles writes the textstyles block: the definitions defs, then
// every run. No runs, no block.
func writeStyles(w *datastream.Writer, defs []StyleDef, runs []Run) error {
	if len(runs) == 0 {
		return nil
	}
	if _, err := w.Begin("textstyles"); err != nil {
		return err
	}
	for _, def := range defs {
		line := fmt.Sprintf("def %s %s %d %s %d %d", def.Name, def.Font.Family,
			def.Font.Size, def.Font.Style, def.Indent, int(def.Justify))
		if err := w.WriteRawLine(line); err != nil {
			return err
		}
	}
	for _, r := range runs {
		if err := w.WriteRawLine(fmt.Sprintf("run %d %d %s", r.Start, r.End-r.Start, r.Style)); err != nil {
			return err
		}
	}
	return w.End()
}

// ReadPayload implements core.DataObject: it consumes tokens through the
// object's own end marker, restoring content, styles and embedded
// children (instantiated through the registry, demand-loading their code).
// The text between markers is decoded by the reader straight onto the
// content, a run of lines at a time, and made valid UTF-8 in place: no
// string per line. A top-level text reserves its content once, from the
// bytes the reader has left (an embedded one would reserve the rest of
// its parent too). Escapes, line breaks and markers only shrink text, and
// only a raw byte that is not valid UTF-8 grows (into U+FFFD), so a
// document read from bytes in hand fills one allocation. Content that
// leaves more than a quarter of its buffer unused is copied to size, so
// the slack is not kept live.
func (d *Data) ReadPayload(r *datastream.Reader) error {
	// A wholesale reload is not a journalable edit: tell any attached
	// journal its log no longer reconstructs this document.
	d.logEdit(EditRecord{Kind: RecReset, Text: "payload reloaded"})
	// Reset (a reload supersedes any deferred tail).
	d.closeTail()
	d.tailErr = nil
	d.setContent(nil)
	d.runs, d.embeds = nil, nil

	var content []byte // UTF-8, n runes
	if r.Depth() == 1 {
		content = make([]byte, 0, r.Remaining())
	}
	n := 0
	var pendingObj core.DataObject
	var runs []Run
	for {
		// The text up to the next marker, its lines joined with newlines
		// (the writer's contract).
		start := len(content)
		var tok datastream.Token
		var err error
		if content, err = r.AppendText(content); err == nil {
			var k int
			content, k = validTail(content, start)
			n += k
			tok, err = r.Next()
		}
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("%w: EOF inside text object", datastream.ErrBadNesting)
			}
			return err
		}
		switch tok.Kind {
		case datastream.TokEnd:
			// Our own end marker: done.
			if pendingObj != nil && r.Lenient() {
				r.AddDiagnostic(tok.Line, "embedded %s had no \\view anchor; dropped", pendingObj.TypeName())
			}
			if cap(content)-len(content) > cap(content)/4 {
				content = bytes.Clone(content)
			}
			d.setContent(content)
			d.runs = runs
			d.NotifyObservers(core.FullChange)
			return nil
		case datastream.TokBegin:
			if tok.Type == "textstyles" {
				if err := d.readStyles(r, &runs); err != nil {
					return err
				}
				continue
			}
			obj, err := core.ReadObjectAfterBegin(r, d.registry(), tok)
			if err != nil {
				return err
			}
			pendingObj = obj
		case datastream.TokView:
			if pendingObj == nil {
				if r.Lenient() {
					r.AddDiagnostic(tok.Line, "\\view{%s,%d} with no preceding object; dropped", tok.Type, tok.ID)
					continue
				}
				return fmt.Errorf("text: \\view{%s,%d} with no preceding object", tok.Type, tok.ID)
			}
			d.embeds = append(d.embeds, &Embedded{
				Pos: n, Obj: pendingObj, ViewName: tok.Type,
			})
			content = append(content, anchorBytes...)
			n++
			pendingObj = nil
		}
	}
}

func (d *Data) readStyles(r *datastream.Reader, runs *[]Run) error {
	// In lenient mode a malformed style line is dropped (with a
	// diagnostic) rather than failing the whole document: style loss is
	// recoverable, content loss is not.
	bad := func(tok datastream.Token, format string, args ...any) error {
		if r.Lenient() {
			r.AddDiagnostic(tok.Line, "textstyles: "+format+"; dropped", args...)
			return nil
		}
		return fmt.Errorf("text: "+format, args...)
	}
	for {
		tok, err := r.Next()
		if err != nil {
			return err
		}
		switch tok.Kind {
		case datastream.TokEnd:
			return nil
		case datastream.TokText:
			fields := strings.Fields(tok.Text)
			if len(fields) == 0 {
				continue
			}
			switch fields[0] {
			case "def":
				if len(fields) != 7 {
					if err := bad(tok, "bad style def %q", tok.Text); err != nil {
						return err
					}
					continue
				}
				size, err1 := strconv.Atoi(fields[3])
				style, err2 := graphics.ParseFontStyle(fields[4])
				indent, err3 := strconv.Atoi(fields[5])
				just, err4 := strconv.Atoi(fields[6])
				if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
					if err := bad(tok, "bad style def %q", tok.Text); err != nil {
						return err
					}
					continue
				}
				if err := d.styles.Define(StyleDef{
					Name:    fields[1],
					Font:    graphics.FontDesc{Family: fields[2], Size: size, Style: style},
					Indent:  indent,
					Justify: Justify(just),
				}); err != nil {
					if lerr := bad(tok, "unusable style def %q (%v)", tok.Text, err); lerr != nil {
						return lerr
					}
					continue
				}
			case "run":
				if len(fields) != 4 {
					if err := bad(tok, "bad style run %q", tok.Text); err != nil {
						return err
					}
					continue
				}
				start, err1 := strconv.Atoi(fields[1])
				n, err2 := strconv.Atoi(fields[2])
				if err1 != nil || err2 != nil || start < 0 || n < 0 {
					if err := bad(tok, "bad style run %q", tok.Text); err != nil {
						return err
					}
					continue
				}
				*runs = append(*runs, Run{Start: start, End: start + n, Style: fields[3]})
			default:
				if err := bad(tok, "unknown textstyles line %q", tok.Text); err != nil {
					return err
				}
			}
		case datastream.TokBegin:
			if r.Lenient() {
				r.AddDiagnostic(tok.Line, "textstyles: unexpected nested %s,%d; skipped", tok.Type, tok.ID)
				if err := r.SkipObject(tok); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("text: unexpected %v inside textstyles", tok.Kind)
		default:
			if r.Lenient() {
				r.AddDiagnostic(tok.Line, "textstyles: unexpected %v token; dropped", tok.Kind)
				continue
			}
			return fmt.Errorf("text: unexpected %v inside textstyles", tok.Kind)
		}
	}
}

// Register installs the text data class in reg. View classes live in the
// textview package so a data-only program stays small.
func Register(reg *class.Registry) error {
	return reg.Register(class.Info{
		Name: "text",
		New: func() any {
			d := New()
			d.reg = reg
			return d
		},
	})
}
