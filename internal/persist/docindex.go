package persist

import (
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
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
// without re-reading them; the streamed open checks it against the bytes
// it reads once the tail is in (tailLoader.end), because a stale sidecar
// can pass the size and head checks. An index that fails any check — bad
// magic, torn record, CRC mismatch, stale binding — is simply not used;
// the open falls back to the full parse. The index is an accelerator,
// never an authority: wrong bytes are impossible, only slow opens.

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

// WriteIndex writes the sidecar for path through a temporary file and a
// rename, with no flush: it is an accelerator, and after a crash it may
// be missing, torn, or the previous save's. LoadIndex rejects the first
// two and a stale one whose size or head differs from the file's; the
// streamed open catches the rest by the CRC of the bytes it reads.
func WriteIndex(fsys FS, path string, ix *DocIndex) error {
	return writeRecordFile(fsys, IndexPath(path), IndexMagic, ix.records(), false)
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
