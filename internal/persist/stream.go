package persist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"

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
// index that fails validation, a non-streamable document shape, or a
// leftover journal (recovery replays edits over the document and needs
// all of it). The fallback is the one rule every corruption case
// reduces to — a bad index can cost time, but it cannot change bytes.

// tailChunkBytes is how much raw file the tail loader decodes per
// LoadMore step, and the size of its read buffer.
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
	// The head read leaves the file at ContentStart: the tail reads on
	// from there, front to back, and stops at ContentEnd.
	content := &io.LimitedReader{R: f, N: idx.ContentEnd - idx.ContentStart}
	br := bufio.NewReaderSize(content, tailChunkBytes)
	doc.SetTailLoader(&tailLoader{
		f:          f,
		content:    content,
		br:         br,
		lr:         datastream.NewLineReader(br, datastream.DefaultLimits.MaxLineBytes),
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

// tailLoader feeds a document's deferred content from the open file,
// reading its logical lines through a line reader exactly as the eager
// parser would have.
type tailLoader struct {
	f       File              // keeps the document file open; Close releases it
	content *io.LimitedReader // the file from ContentStart to ContentEnd
	br      *bufio.Reader     // reads content a chunk at a time
	lr      *datastream.LineReader

	linesOut   int // logical lines fully delivered
	runesOut   int // content runes delivered (join newlines included)
	totalRunes int
	totalLines int

	err error
}

// lineBuffered reports whether the read buffer holds a whole physical
// line, which can then be read without reading the file.
func (t *tailLoader) lineBuffered() bool {
	b, _ := t.br.Peek(t.br.Buffered()) // what is buffered can always be peeked
	return bytes.IndexByte(b, '\n') >= 0
}

// Next decodes the logical lines the read buffer holds, reading a chunk
// of the file first if it holds no whole line. It stops before a line
// that is not wholly buffered, or after one whose continuation had to
// read the file, so one step reads about one chunk. A line the content
// region cuts off is not delivered: it latches an error and leaves the
// document at the last whole line.
func (t *tailLoader) Next() ([]rune, error) {
	if t.err != nil {
		return nil, t.err
	}
	var out []rune
	for len(out) == 0 || t.lineBuffered() {
		unread := t.content.N
		line, err := t.lr.ReadLogical(math.MaxInt)
		switch {
		case err == nil:
		case err == io.EOF:
			t.err = io.EOF
		case err == datastream.ErrNoNewline, err == io.ErrUnexpectedEOF:
			t.err = fmt.Errorf("persist: streamed content ends mid-line (offset index out of step with file)")
		default: // an undecodable or overlong line, or the file failed
			t.err = fmt.Errorf("persist: reading streamed content: %w", err)
		}
		if t.err != nil {
			return out, t.err
		}
		// The document's loaded prefix holds no content, so the first
		// logical line delivered is the first line of the document: no
		// join newline.
		n := len(out)
		if t.linesOut > 0 {
			out = append(out, '\n')
		}
		for _, r := range string(line) {
			out = append(out, r)
		}
		t.runesOut += len(out) - n
		t.linesOut++
		if n > 0 && t.content.N != unread {
			break
		}
	}
	return out, nil
}

// RemainingRunes is the offset index's count of runes not yet delivered,
// bounded by the content bytes left (every rune takes at least one byte),
// so an index that lies cannot make LoadAll reserve more than the file
// holds.
func (t *tailLoader) RemainingRunes() int {
	left := t.content.N + int64(t.br.Buffered())
	return int(max(0, min(int64(t.totalRunes-t.runesOut), left)))
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
