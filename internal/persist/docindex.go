package persist

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"atk/internal/datastream"
)

// The offset index is a sidecar written beside every saved document
// (IndexPath), describing the saved bytes well enough that a later open
// can map the document without parsing it: where the top component's
// content payload begins and ends, and how many runes and logical lines
// it holds. It is a CRC record file (see record.go), like the edit
// journal:
//
//	%atkindex1
//	0 <crc> meta <docLen> <docCRC> <headLen> <headCRC> <runes> <lines>
//	1 <crc> comp <type> <id> <contentStart> <contentEnd> <streamable>
//
// The meta record binds the sidecar to one exact saved file: the open
// path trusts the index only when the file's size equals docLen AND the
// CRC of its first headLen bytes equals headCRC. docCRC is the CRC of the
// whole file, carried so the journal can be bound to the saved bytes
// without re-reading them. An index that fails any check — bad magic,
// torn record, CRC mismatch, stale binding — is simply not used; the open
// falls back to the full parse. The index is an accelerator, never an
// authority: wrong bytes are impossible, only slow opens.

// IndexMagic is the first line of every offset-index sidecar.
const IndexMagic = "%atkindex1"

// headProbe is how many leading bytes the meta record's head CRC covers.
const headProbe = 4096

// IndexPath returns where the offset index for path lives.
func IndexPath(path string) string { return path + ".idx" }

// DocIndex is the parsed offset index of one saved document.
type DocIndex struct {
	// Binding to the saved file (see the meta record).
	DocLen  int64
	DocCRC  uint32
	HeadLen int
	HeadCRC uint32

	// Content geometry of the top-level component.
	CompType     string
	CompID       int
	ContentStart int64 // file offset of the first content payload line
	ContentEnd   int64 // file offset of the closing \enddata line
	Streamable   bool

	// Totals over the content payload.
	Runes int
	Lines int
}

// BuildIndex scans one saved document and derives its offset index in a
// single pass. Content lines with no backslash (no escape, no
// continuation) that do not continue a logical line are counted without
// decoding them, a run of them at a time; the rest are decoded. It never
// fails: a document whose shape the streaming open cannot serve
// (embedded components, multiple top-level objects, odd nesting) yields
// an index with Streamable == false, which still binds the sidecar to
// the bytes and still lets the journal reuse docCRC.
func BuildIndex(doc []byte) *DocIndex {
	ix := &DocIndex{
		DocLen:  int64(len(doc)),
		DocCRC:  crc32.ChecksumIEEE(doc),
		HeadLen: min(len(doc), headProbe),
	}
	ix.HeadCRC = crc32.ChecksumIEEE(doc[:ix.HeadLen])

	// Physical-line walker over the raw bytes — no per-line allocation,
	// because this runs over the whole document at every save.
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

// ContentRunes returns the total rune length of the joined content.
func (ix *DocIndex) ContentRunes() int {
	if ix.Lines == 0 {
		return 0
	}
	return ix.Runes + ix.Lines - 1
}

// records renders the sidecar's record payloads.
func (ix *DocIndex) records() []string {
	streamable := 0
	if ix.Streamable {
		streamable = 1
	}
	return []string{
		fmt.Sprintf("meta %d %08x %d %08x %d %d", ix.DocLen, ix.DocCRC, ix.HeadLen, ix.HeadCRC, ix.Runes, ix.Lines),
		fmt.Sprintf("comp %s %d %d %d %d", ix.CompType, ix.CompID, ix.ContentStart, ix.ContentEnd, streamable),
	}
}

// WriteIndex atomically writes the sidecar for path.
func WriteIndex(fsys FS, path string, ix *DocIndex) error {
	return WriteRecordFile(fsys, IndexPath(path), IndexMagic, ix.records())
}

// parseIndex decodes the sidecar's record payloads. Any malformed or
// misplaced record invalidates the whole index, like damage to the file
// itself.
func parseIndex(recs []string) (*DocIndex, error) {
	if len(recs) != 2 {
		return nil, fmt.Errorf("persist: index holds %d records, want meta and comp", len(recs))
	}
	ix := &DocIndex{}
	for seq, payload := range recs {
		if err := ix.applyRecord(uint64(seq), payload); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

func (ix *DocIndex) applyRecord(seq uint64, payload string) error {
	f := strings.Fields(payload)
	bad := func() error { return fmt.Errorf("persist: malformed index record %q", payload) }
	if len(f) == 0 {
		return bad()
	}
	switch f[0] {
	case "meta":
		if seq != 0 || len(f) != 7 {
			return bad()
		}
		docLen, e1 := strconv.ParseInt(f[1], 10, 64)
		docCRC, e2 := strconv.ParseUint(f[2], 16, 32)
		headLen, e3 := strconv.Atoi(f[3])
		headCRC, e4 := strconv.ParseUint(f[4], 16, 32)
		runes, e5 := strconv.Atoi(f[5])
		lines, e6 := strconv.Atoi(f[6])
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil || e5 != nil || e6 != nil {
			return bad()
		}
		ix.DocLen, ix.DocCRC = docLen, uint32(docCRC)
		ix.HeadLen, ix.HeadCRC = headLen, uint32(headCRC)
		ix.Runes, ix.Lines = runes, lines
	case "comp":
		if seq != 1 || len(f) != 6 {
			return bad()
		}
		id, e1 := strconv.Atoi(f[2])
		start, e2 := strconv.ParseInt(f[3], 10, 64)
		end, e3 := strconv.ParseInt(f[4], 10, 64)
		streamable, e4 := strconv.Atoi(f[5])
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
			return bad()
		}
		ix.CompType, ix.CompID = f[1], id
		ix.ContentStart, ix.ContentEnd = start, end
		ix.Streamable = streamable == 1
	default:
		return bad()
	}
	return nil
}

// LoadIndex reads and validates the offset index for path against the
// document file itself: sizes must match and the head-probe CRC must
// agree. Any failure returns an error; callers treat every error the same
// way — fall back to the full parse.
func LoadIndex(fsys FS, path string) (*DocIndex, error) {
	recs, err := ReadRecordFile(fsys, IndexPath(path), IndexMagic)
	if err != nil {
		return nil, err
	}
	ix, err := parseIndex(recs)
	if err != nil {
		return nil, err
	}
	size, err := fsys.Stat(path)
	if err != nil {
		return nil, err
	}
	if size != ix.DocLen {
		return nil, fmt.Errorf("persist: offset index is stale (file %d bytes, index says %d)", size, ix.DocLen)
	}
	if ix.HeadLen < 0 || int64(ix.HeadLen) > size {
		return nil, fmt.Errorf("persist: offset index head probe out of range")
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, ix.HeadLen)
	if _, err := io.ReadFull(f, head); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(head) != ix.HeadCRC {
		return nil, fmt.Errorf("persist: offset index does not match the document bytes")
	}
	if ix.Streamable && (ix.ContentStart < 0 || ix.ContentEnd < ix.ContentStart || ix.ContentEnd > size) {
		return nil, fmt.Errorf("persist: offset index content range out of bounds")
	}
	return ix, nil
}
