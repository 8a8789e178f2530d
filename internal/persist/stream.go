package persist

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unicode/utf8"

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
//
// Nor can it misbind the journal: the index's DocCRC binds the journal
// only until the tail is in, and the tail loader then checks it against
// the CRC of every byte it read (tailLoader.end), because a stale sidecar
// (WriteIndex does not flush) can pass LoadIndex's size and head checks.

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
	sum := &crcReader{r: f}
	// Parse the head — everything before the content — as a complete
	// document by appending the end marker the real file keeps ContentEnd
	// bytes later. ContentStart is a line start, so the prefix is
	// newline-terminated and the synthesized marker lands on its own line.
	head := make([]byte, idx.ContentStart, idx.ContentStart+64)
	if _, err := io.ReadFull(sum, head); err != nil {
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
	df := &DocFile{fsys: fsys, Path: path, Doc: doc, crc: idx.DocCRC}
	// The head read leaves the file at ContentStart: the tail reads on
	// from there, front to back, and stops at ContentEnd.
	content := &io.LimitedReader{R: sum, N: idx.ContentEnd - idx.ContentStart}
	br := bufio.NewReaderSize(content, tailChunkBytes)
	doc.SetTailLoader(&tailLoader{
		f:          f,
		sum:        sum,
		content:    content,
		br:         br,
		lr:         datastream.NewLineReader(br, datastream.DefaultLimits.MaxLineBytes),
		df:         df,
		docLen:     idx.DocLen,
		totalRunes: idx.ContentRunes(),
		totalLines: idx.Lines,
	})
	doc.MarkClean()
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
	sum     *crcReader        // every byte read from f, and their CRC
	content *io.LimitedReader // the file from ContentStart to ContentEnd
	br      *bufio.Reader     // reads content a chunk at a time
	lr      *datastream.LineReader

	df     *DocFile // the open's DocFile, bound to the index's DocCRC
	docLen int64    // the index's DocLen

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

// Next appends the logical lines the read buffer holds to dst, reading
// a chunk of the file first if it holds no whole line. It stops before a
// line that is not wholly buffered, or after one whose continuation had
// to read the file, so one step reads about one chunk. A line the
// content region cuts off is not delivered: it latches an error and
// leaves the document at the last whole line.
func (t *tailLoader) Next(dst []byte) ([]byte, error) {
	if t.err != nil {
		return dst, t.err
	}
	start := len(dst)
	for len(dst) == start || t.lineBuffered() {
		unread := t.content.N
		line, err := t.lr.ReadLogical(math.MaxInt)
		switch {
		case err == nil:
		case err == io.EOF:
			t.err = t.end()
		case err == datastream.ErrNoNewline, err == io.ErrUnexpectedEOF:
			t.err = fmt.Errorf("persist: streamed content ends mid-line (offset index out of step with file)")
		default: // an undecodable or overlong line, or the file failed
			t.err = fmt.Errorf("persist: reading streamed content: %w", err)
		}
		if t.err != nil {
			return dst, t.err
		}
		// The document's loaded prefix holds no content, so the first
		// logical line delivered is the first line of the document: no
		// join newline.
		n := len(dst)
		if t.linesOut > 0 {
			dst = append(dst, '\n')
			t.runesOut++
		}
		dst = append(dst, line...)
		t.runesOut += utf8.RuneCount(line)
		t.linesOut++
		if n > start && t.content.N != unread {
			break
		}
	}
	return dst, nil
}

// end finishes the hash of the file once the content is in: it reads on
// through the end marker to the end of the file, and rebinds the DocFile
// if the bytes were not the ones the index's DocLen and DocCRC describe.
// It returns io.EOF: the content is in even when that read fails, and
// then, with the binding unchecked, the DocFile goes stale, so the next
// Sync checkpoints rather than trust the index's DocCRC.
func (t *tailLoader) end() error {
	if _, err := io.Copy(io.Discard, t.sum); err != nil {
		t.df.stale = true
		return io.EOF
	}
	if t.sum.n != t.docLen || t.sum.crc != t.df.crc {
		t.df.rebind(t.sum.crc)
	}
	return io.EOF
}

// crcReader passes reads through and keeps the count and the CRC-32 of
// the bytes read.
type crcReader struct {
	r   io.Reader
	n   int64
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// RemainingBytes is the content bytes not yet decoded, in the file and
// in the read buffer.
func (t *tailLoader) RemainingBytes() int {
	return int(t.content.N) + t.br.Buffered()
}

// RemainingRunes is the offset index's count of runes not yet delivered,
// bounded by the content bytes left (every rune takes at least one byte),
// so an index that lies cannot make LoadAll reserve more than the file
// holds.
func (t *tailLoader) RemainingRunes() int {
	return max(0, min(t.totalRunes-t.runesOut, t.RemainingBytes()))
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
