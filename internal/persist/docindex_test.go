package persist

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"unicode/utf8"

	"atk/internal/datastream"
)

// BuildIndex is the oracle for the sidecar a save writes: it derives the
// offset index from the saved bytes alone, in one pass, where a save
// takes it from the write itself (indexWriter.index). Content lines with
// no backslash (no escape, no continuation) that do not continue a
// logical line are counted without decoding them, a run of them at a
// time; the rest are decoded. It never fails: a document whose shape the
// streaming open cannot serve (embedded components, multiple top-level
// objects, odd nesting) yields an index with Streamable == false, which
// still binds the sidecar to the bytes.
func BuildIndex(doc []byte) *DocIndex {
	ix := &DocIndex{
		DocLen:  int64(len(doc)),
		DocCRC:  crc32.ChecksumIEEE(doc),
		HeadLen: min(len(doc), headProbe),
	}
	ix.HeadCRC = crc32.ChecksumIEEE(doc[:ix.HeadLen])

	// Physical-line walker over the raw bytes, with no per-line
	// allocation.
	pos := 0
	nextLine := func() ([]byte, int, bool) {
		if pos >= len(doc) {
			return nil, pos, false
		}
		start := pos
		nl := bytes.IndexByte(doc[pos:], '\n')
		if nl < 0 {
			pos = len(doc)
			return doc[start:], start, true
		}
		pos += nl + 1
		return doc[start : start+nl], start, true
	}
	beginPrefix := []byte(`\begindata{`)

	// Top-level begin marker.
	line, _, _ := nextLine()
	top, merr := datastream.ParseMarker(string(line))
	if merr != nil || top.Kind != datastream.TokBegin {
		return ix
	}
	ix.CompType, ix.CompID = top.Type, top.ID
	endMarker := []byte(fmt.Sprintf(`\enddata{%s,%d}`, top.Type, top.ID))
	if top.Type != "text" {
		return ix
	}

	// Optional textstyles block, which must be flat.
	contentStart := pos
	line, off, ok := nextLine()
	if ok && bytes.HasPrefix(line, beginPrefix) {
		styles, serr := datastream.ParseMarker(string(line))
		if serr != nil || styles.Type != "textstyles" {
			return ix
		}
		styleEnd := []byte(fmt.Sprintf(`\enddata{%s,%d}`, styles.Type, styles.ID))
		for {
			line, _, ok = nextLine()
			if !ok || bytes.HasPrefix(line, beginPrefix) {
				return ix
			}
			if bytes.Equal(line, styleEnd) {
				break
			}
		}
		contentStart = pos
		line, off, ok = nextLine()
	}
	ix.ContentStart = int64(contentStart)

	// Content payload: logical text lines only, up to our end marker.
	var scratch []byte
	inLogical := false
	next := -1 // offset of the first backslash at or after off; len(doc) if none
	for ok {
		if next < off {
			next = len(doc)
			if i := bytes.IndexByte(doc[off:], '\\'); i >= 0 {
				next = off + i
			}
		}
		if !inLogical && bytes.Equal(line, endMarker) {
			ix.ContentEnd = int64(off)
			// Nothing may follow the end marker.
			if pos != len(doc) {
				return ix
			}
			ix.Streamable = true
			return ix
		}
		if !inLogical && (bytes.HasPrefix(line, beginPrefix) || bytes.HasPrefix(line, []byte(`\view{`)) || bytes.HasPrefix(line, []byte(`\enddata{`))) {
			return ix // embedded object or foreign nesting: not streamable
		}
		if !inLogical && next >= off+len(line) {
			// This line and the whole lines after it up to the one holding
			// the next backslash have no escape and continue no logical
			// line, so decoding would copy them byte for byte, raw
			// non-ASCII included. Their runes are counted in place, all at
			// once: UTF-8 never spans a newline.
			run := line
			if k := bytes.LastIndexByte(doc[off:next], '\n'); k >= 0 {
				run, pos = doc[off:off+k], off+k+1
			}
			n := bytes.Count(run, []byte{'\n'})
			ix.Runes += utf8.RuneCount(run) - n
			ix.Lines += n + 1
			line, off, ok = nextLine()
			continue
		}
		if !inLogical {
			scratch = scratch[:0]
		}
		var cont bool
		var derr error
		scratch, cont, derr = datastream.DecodeAppend(scratch, line)
		if derr != nil {
			return ix
		}
		inLogical = cont
		if !cont {
			ix.Runes += utf8.RuneCount(scratch)
			ix.Lines++
		}
		line, off, ok = nextLine()
	}
	return ix // EOF before the end marker: torn file, not streamable
}
