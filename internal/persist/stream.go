package persist

import (
	"bytes"
	"fmt"
	"io"

	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/datastream"
	"atk/internal/text"
)

// The streaming open. Load reads and parses the whole file before the
// first line can be laid out, which for a 100 MB document means seconds
// of wall clock and a transient second copy of everything. LoadStreaming
// instead opens the document *around* its content: it reads only the
// head (the begin marker and the textstyles block, located by the offset
// index), parses that as a complete-but-empty document, and attaches a
// TailLoader that faults the content in chunk by chunk as the layout
// frontier approaches it. The document is usable — visible, scrollable,
// searchable over what has arrived — while the bulk of the bytes are
// still on disk.
//
// Streaming is an optimization, never a different answer. Anything that
// prevents it falls back to the eager path silently: no offset index, an
// index that fails validation, a non-streamable document shape, a
// filesystem without seekable reads, or a leftover journal (recovery
// replays edits over the document and needs all of it). The fallback is
// the one rule every corruption case reduces to — a bad index can cost
// time, but it cannot change bytes.

// tailChunkBytes is how much raw file the tail loader decodes per
// LoadMore step.
const tailChunkBytes = 64 << 10

// LoadStreaming opens the document at path without loading its content
// when the saved offset index allows it, and falls back to the eager
// Load in every other case. Callers use it exactly like Load.
func LoadStreaming(fsys FS, path string, reg *class.Registry, mode datastream.Mode) (*DocFile, error) {
	if df := tryLoadStreaming(fsys, path, reg, mode); df != nil {
		return df, nil
	}
	return Load(fsys, path, reg, mode)
}

// tryLoadStreaming attempts the lazy open; nil means "use the eager
// path" (including for genuinely broken files — the eager path produces
// the authoritative error message).
func tryLoadStreaming(fsys FS, path string, reg *class.Registry, mode datastream.Mode) *DocFile {
	// A leftover journal means the last session crashed; recovery replays
	// edit records against positions in the complete document.
	if Exists(fsys, JournalPath(path)) {
		return nil
	}
	idx, err := LoadIndex(fsys, path)
	if err != nil || !idx.Streamable || idx.CompType != "text" {
		return nil
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil
	}
	rs, ok := f.(io.ReadSeeker)
	if !ok {
		_ = f.Close()
		return nil
	}
	// Parse the head — everything before the content — as a complete
	// document by appending the end marker the real file keeps ContentEnd
	// bytes later. ContentStart is a line start, so the prefix is
	// newline-terminated and the synthesized marker lands on its own line.
	head := make([]byte, idx.ContentStart, idx.ContentStart+64)
	if _, err := io.ReadFull(f, head); err != nil {
		_ = f.Close()
		return nil
	}
	head = append(head, fmt.Sprintf("\\enddata{%s,%d}\n", idx.CompType, idx.CompID)...)
	r := datastream.NewReaderOptions(bytes.NewReader(head), datastream.Options{Mode: mode})
	obj, err := core.ReadObject(r, reg)
	if err != nil {
		_ = f.Close()
		return nil
	}
	doc, ok := obj.(*text.Data)
	if !ok {
		_ = f.Close()
		return nil
	}
	doc.SetRegistry(reg)
	sr, err := datastream.NewStreamReaderSize(rs, tailChunkBytes)
	if err != nil {
		_ = f.Close()
		return nil
	}
	if _, err := sr.Seek(idx.ContentStart, io.SeekStart); err != nil {
		_ = f.Close()
		return nil
	}
	doc.SetTailLoader(&tailLoader{
		f:          f,
		sr:         sr,
		end:        idx.ContentEnd,
		totalRunes: idx.ContentRunes(),
		totalLines: idx.Lines,
	})
	doc.MarkClean()
	df := &DocFile{fsys: fsys, Path: path, Doc: doc, crc: idx.DocCRC}
	for _, d := range r.Diagnostics() {
		df.LoadDiags = append(df.LoadDiags, d.String())
	}
	return df
}

// tailLoader feeds a document's deferred content from the open file: raw
// bytes through a StreamReader, split into physical lines, unescaped,
// and joined into logical lines exactly as the eager parser would have.
type tailLoader struct {
	f   File // keeps the document file open; Close releases it
	sr  *datastream.StreamReader
	end int64 // file offset of the \enddata line (content stops here)

	raw       []byte // carry: bytes of an incomplete physical line
	logical   []byte // carry: decoded bytes of an incomplete logical line
	inLogical bool

	linesOut   int // logical lines fully delivered
	runesOut   int // content runes delivered (join newlines included)
	totalRunes int
	totalLines int

	buf []byte
	err error
}

// Next decodes up to one raw chunk into content runes. It may loop past
// chunks that complete no logical line (possible only with pathological
// continuation runs) so callers never see an empty non-final chunk.
func (t *tailLoader) Next() ([]rune, error) {
	if t.err != nil {
		return nil, t.err
	}
	var out []rune
	for {
		remaining := t.end - t.sr.Offset()
		if remaining <= 0 {
			if len(t.raw) > 0 || t.inLogical {
				// The region ended mid-line: the index disagrees with the
				// file. Deliver nothing partial; latch and leave the
				// document truncated at the last whole logical line.
				t.err = fmt.Errorf("persist: streamed content ends mid-line (offset index out of step with file)")
				return out, t.err
			}
			t.err = io.EOF
			return out, io.EOF
		}
		n := int(min(int64(tailChunkBytes), remaining))
		if cap(t.buf) < n {
			t.buf = make([]byte, n)
		}
		buf := t.buf[:n]
		if _, err := io.ReadFull(t.sr, buf); err != nil {
			t.err = fmt.Errorf("persist: reading streamed content: %w", err)
			return out, t.err
		}
		t.raw = append(t.raw, buf...)
		consumed := 0
		for {
			nl := bytes.IndexByte(t.raw[consumed:], '\n')
			if nl < 0 {
				break
			}
			line := t.raw[consumed : consumed+nl]
			consumed += nl + 1
			if err := t.feedLine(line, &out); err != nil {
				t.err = err
				return out, err
			}
		}
		t.raw = append(t.raw[:0], t.raw[consumed:]...)
		if len(out) > 0 {
			return out, nil
		}
	}
}

// feedLine decodes one physical line, appending any completed logical
// line (with its join newline) onto out.
func (t *tailLoader) feedLine(line []byte, out *[]rune) error {
	var cont bool
	var err error
	t.logical, cont, err = datastream.DecodeAppend(t.logical, line)
	if err != nil {
		return fmt.Errorf("persist: undecodable streamed content line: %w", err)
	}
	t.inLogical = cont
	if cont {
		return nil
	}
	// The document's loaded prefix holds no content, so the first logical
	// line delivered is the first line of the document: no join newline.
	if t.linesOut > 0 {
		*out = append(*out, '\n')
		t.runesOut++
	}
	for _, r := range string(t.logical) {
		*out = append(*out, r)
		t.runesOut++
	}
	t.linesOut++
	t.logical = t.logical[:0]
	return nil
}

func (t *tailLoader) RemainingRunes() int {
	return max(0, t.totalRunes-t.runesOut)
}

func (t *tailLoader) RemainingLines() int {
	return max(0, t.totalLines-t.linesOut)
}

func (t *tailLoader) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}
