package persist

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"

	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/datastream"
	"atk/internal/ops"
	"atk/internal/table"
	"atk/internal/text"
)

// DocFile ties a text document to its file and its edit journal, and owns
// the crash-safety invariant: at every instant, reopening the file yields
// either the last saved document or the saved document plus a prefix of
// the journaled edits — never a torn hybrid. The moving parts:
//
//	save     AtomicWrite the serialized document, then atomically rewrite
//	         the journal to an empty one bound to the new bytes. A crash
//	         before the rename keeps the old file and old journal; after
//	         it, the old journal no longer matches the file's CRC and is
//	         ignored. Either way the invariant holds.
//	edit     Each Insert/Delete/style change appends one CRC-framed record
//	         to the journal (fsync-batched). A crash loses at most the
//	         unsynced tail of the batch.
//	open     Load the file; if a journal bound to exactly these bytes is
//	         present, the last session crashed — replay its records over
//	         the document and report the recovery.
//	exit     Close discards the journal: an orderly exit where the user
//	         declined to save is a decision, not an accident.
//
// Edits the record format cannot express (embedding a live component
// graph, wholesale payload reloads) append a reset marker and stop the
// journal; the next Sync checkpoints by saving the whole document.
type DocFile struct {
	fsys FS
	// Path is the document file; the journal lives beside it at
	// JournalPath(Path).
	Path string
	Doc  *text.Data

	journal *Journal
	stale   bool // journal no longer reconstructs Doc; checkpoint needed
	// crc is the CRC-32 of the file's bytes as this DocFile last read or
	// wrote them, taken by whoever had them (or their CRC) in hand — Load,
	// the streaming open's offset index, Save's offset index — so binding
	// a journal to them never reads the file back just to hash it.
	crc uint32

	// LoadDiags are datastream repair diagnostics from parsing the file.
	LoadDiags []string
	// RecoveryDiags describe journal recovery (or why it was skipped).
	RecoveryDiags []string
	// Replayed is how many journaled edits were recovered at load.
	Replayed int

	// replayed holds the raw recovered records so StartJournal can carry
	// them into the fresh journal — a second crash before the next save
	// must not lose what the first recovery restored.
	replayed []string

	// attached records that StartJournal installed the document's edit
	// logger (owner-driven mode, as opposed to the replication server's
	// detached mode); Save re-wires embedded components only then.
	attached bool

	// OnReset, when set, is called each time the journal goes stale
	// because an edit could not be represented (reason from the reset);
	// the UI surfaces it so "your last edit forced a full checkpoint" is
	// visible rather than silent.
	OnReset func(reason string)
}

// JournalPath returns where the edit journal for path lives.
func JournalPath(path string) string { return path + ".journal" }

// EncodeDocument serializes doc to the external representation.
func EncodeDocument(doc *text.Data) ([]byte, error) {
	return encode(doc, encodedSizeHint(doc))
}

// EncodeCapture serializes a capture of a text document exactly as
// EncodeDocument serialized the document when the capture was taken.
func EncodeCapture(c *text.Capture) ([]byte, error) {
	return encode(c, sizeHint(c.ByteLen(), len(c.Runs())))
}

// encode writes obj's external representation into a buffer of hint
// bytes, grown only if obj needs more.
func encode(obj core.Encodable, hint int) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, hint))
	w := datastream.NewWriter(buf)
	if _, err := core.WriteObject(w, obj); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodedSizeHint is EncodeDocument's up-front buffer size: the stored
// bytes (and a byte for each rune still to load), a sixth more for
// escapes and continuation breaks, and room for the markers and style
// runs. Plain text fits it with room to spare, so the buffer is
// allocated once; text denser in escapes than that (or a large embedded
// component) grows it as usual. A save of a small document sizes its
// write buffer from it too.
func encodedSizeHint(doc *text.Data) int {
	return sizeHint(doc.ByteLen()+doc.PendingRunes(), len(doc.Runs()))
}

// sizeHint is encodedSizeHint for n bytes of text and runs style runs.
func sizeHint(n, runs int) int { return n + n/6 + 32*runs + 512 }

// SaveDocument atomically writes doc to path (the save-as path, with no
// journal attached) and refreshes the offset-index sidecar.
func SaveDocument(fsys FS, path string, doc *text.Data) error {
	_, err := save(fsys, path, doc)
	return err
}

// saveBuffer caps the buffer a save writes the file through, so a save
// holds a fixed amount of memory whatever the document's size.
const saveBuffer = 256 << 10

// save is the one save routine behind SaveDocument and DocFile.Save, a
// single pass over the document: the encoder streams the piece table
// through a buffer of at most saveBuffer bytes into AtomicWrite's
// temporary file, and the offset index comes from that write — the
// bytes' count and CRCs as they pass (indexWriter), the content's byte
// range from the Writer, its rune and line counts from the document.
// The sidecar is written only after the rename and the directory fsync,
// so the file operations keep their order. It returns the index, whose
// DocCRC binds a journal to the saved bytes.
func save(fsys FS, path string, doc *text.Data) (*DocIndex, error) {
	// A streamed document saves its tail too — and if the tail could not
	// be loaded, overwriting the original with the truncated buffer would
	// destroy the very bytes the document is still missing.
	if err := doc.LoadAll(); err != nil {
		return nil, fmt.Errorf("persist: refusing to save a truncated document: %w", err)
	}
	var ix *DocIndex
	err := AtomicWrite(fsys, path, func(f io.Writer) error {
		iw := &indexWriter{w: f}
		bw := bufio.NewWriterSize(iw, min(saveBuffer, encodedSizeHint(doc)))
		w := datastream.NewWriter(bw)
		id, err := core.WriteObject(w, doc)
		if err == nil {
			err = w.Close()
		}
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			return err
		}
		ix = iw.index(doc, id, w)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Best-effort: the index only accelerates later opens, so a failure
	// to write it removes any stale one and otherwise lets the save stand.
	// (A stale sidecar would be rejected at open by its size/CRC binding
	// anyway; removing it just saves that open the wasted validation.)
	if err := WriteIndex(fsys, path, ix); err != nil {
		_ = fsys.Remove(IndexPath(path))
	}
	return ix, nil
}

// indexWriter passes a save's bytes on to the file and keeps what the
// offset index binds of them: their count, the CRC of them all, and the
// CRC of the first headProbe.
type indexWriter struct {
	w         io.Writer
	n         int64
	crc, head uint32
}

func (iw *indexWriter) Write(p []byte) (int, error) {
	n, err := iw.w.Write(p)
	if h := headProbe - iw.n; h > 0 {
		iw.head = crc32.Update(iw.head, crc32.IEEETable, p[:min(int64(n), h)])
	}
	iw.crc = crc32.Update(iw.crc, crc32.IEEETable, p[:n])
	iw.n += int64(n)
	return n, err
}

// index is the offset index of the document doc that w wrote through iw
// as object id: what BuildIndex would read back from the bytes, without
// reading them. The document is streamable when it embeds nothing, and
// its content holds Lines logical lines — its hard lines, or none when
// it is empty — whose runes are its own less the newlines between them.
func (iw *indexWriter) index(doc *text.Data, id int, w *datastream.Writer) *DocIndex {
	lines := doc.LineCount()
	if doc.Len() == 0 {
		lines = 0
	}
	start, end := w.Content()
	return &DocIndex{
		DocLen:       iw.n,
		DocCRC:       iw.crc,
		HeadLen:      int(min(iw.n, headProbe)),
		HeadCRC:      iw.head,
		CompType:     doc.TypeName(),
		CompID:       id,
		ContentStart: start,
		ContentEnd:   end,
		Streamable:   len(doc.Embeds()) == 0,
		Runes:        doc.Len() - max(lines-1, 0),
		Lines:        lines,
	}
}

// baseHeader is the journal header binding it to an exact saved file — a
// CRC of the bytes, not an mtime, so touching the file or copying it
// around cannot make a stale journal look current.
func baseHeader(savedCRC uint32) string {
	return fmt.Sprintf("base %08x", savedCRC)
}

// Load reads the document at path and, if a journal from a crashed session
// is bound to it, replays the journaled edits over the document. Parse
// repairs land in LoadDiags, the recovery report in RecoveryDiags. After a
// clean load the document is marked clean; after a recovery it is left
// dirty, since the file on disk no longer matches it.
func Load(fsys FS, path string, reg *class.Registry, mode datastream.Mode) (*DocFile, error) {
	raw, err := ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	r := datastream.NewReaderOptions(bytes.NewReader(raw), datastream.Options{Mode: mode})
	obj, err := core.ReadObject(r, reg)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	doc, ok := obj.(*text.Data)
	if !ok {
		return nil, fmt.Errorf("%s holds a %s, not a text document", path, obj.TypeName())
	}
	doc.SetRegistry(reg)
	df := &DocFile{fsys: fsys, Path: path, Doc: doc, crc: crc32.ChecksumIEEE(raw)}
	for _, d := range r.Diagnostics() {
		df.LoadDiags = append(df.LoadDiags, d.String())
	}
	df.recoverJournal()
	if df.Replayed == 0 {
		doc.MarkClean()
	}
	return df, nil
}

// recoverJournal replays a leftover journal over the freshly loaded
// document. Replay stops — keeping the prefix — at the first damaged,
// undecodable, inapplicable, or reset record.
func (df *DocFile) recoverJournal() {
	diag := func(format string, args ...any) {
		df.RecoveryDiags = append(df.RecoveryDiags, fmt.Sprintf(format, args...))
	}
	rep, err := ReplayJournal(df.fsys, JournalPath(df.Path))
	if err != nil {
		if err != ErrNoJournal {
			diag("journal unreadable, ignoring it: %v", err)
		}
		return
	}
	if rep.Header != baseHeader(df.crc) {
		// Either the header is inside the damaged region or the journal
		// belongs to an older version of the file (crash between the save's
		// rename and the journal rotation). The file is newer: trust it.
		diag("ignoring leftover journal: it does not match this version of the document")
		return
	}
	if rep.Damaged {
		diag("journal tail damaged (%s); replaying the intact prefix", rep.Diag)
	}
	df.Doc.WithoutUndo(func() {
		for i, payload := range rep.Records {
			// Frames decode through the op registry: a bare record is a
			// text edit (every pre-registry journal replays unchanged), a
			// tagged `t <kind> …` frame is a table or embed op.
			op, derr := ops.Decode(payload)
			if derr != nil {
				diag("stopping replay at record %d: %v", i+1, derr)
				return
			}
			if reason, isReset := ops.IsReset(op); isReset {
				diag("stopping replay at record %d: %s — edits after that point were not journaled", i+1, reason)
				return
			}
			if aerr := ops.Apply(df.Doc, op); aerr != nil {
				diag("stopping replay at record %d: %v", i+1, aerr)
				return
			}
			df.Replayed++
			df.replayed = append(df.replayed, payload)
		}
	})
	if df.Replayed > 0 {
		df.RecoveryDiags = append([]string{fmt.Sprintf(
			"recovered %d unsaved edit(s) journaled by the previous session", df.Replayed)},
			df.RecoveryDiags...)
	}
}

// StartJournal begins journaling edits. The journal file is rewritten
// atomically with the current base header plus any records recovered at
// load (so a second crash loses nothing the first recovery restored), then
// every subsequent edit appends. Embedded tables are wired too: their
// cell and structural edits journal as tagged op frames, so a crash in a
// spreadsheet session replays like one in a prose session.
func (df *DocFile) StartJournal() error {
	if err := df.StartJournalDetached(); err != nil {
		return err
	}
	df.Doc.SetEditLogger(df.logEdit)
	df.attached = true
	df.wireComponents()
	return nil
}

// wireComponents installs op loggers on the journal-capable embedded
// components (tables). A mutation the op model cannot express stales the
// journal exactly like a text reset record does.
func (df *DocFile) wireComponents() {
	for _, e := range df.Doc.Embeds() {
		td, ok := e.Obj.(*table.Data)
		if !ok {
			continue
		}
		e := e // the closure reads the live anchor position at emit time
		td.SetOpLogger(func(op table.Op) {
			// A delete may have swallowed the anchor since wiring: the
			// component left the document, so its edits no longer belong
			// in the journal (identity check — another embed may occupy
			// the stale position).
			if df.Doc.EmbeddedAt(e.Pos) != e {
				td.SetOpLogger(nil)
				return
			}
			if op.Kind == table.OpReset {
				df.reset(op.Reason)
				return
			}
			if df.journal == nil || df.stale || df.journal.Err() != nil {
				return
			}
			_ = df.journal.Append(ops.MustEncode(ops.Op{
				Kind:  ops.KindTable,
				Table: ops.TableOp{Pos: e.Pos, Op: op},
			}))
		})
	}
}

// StartJournalDetached begins journaling WITHOUT installing the document's
// edit logger: the owner appends records explicitly with AppendRecord.
// This is the replication-server mode (internal/docserve): the server
// applies client ops with ApplyRecord — which deliberately bypasses the
// edit logger — and journals exactly the records it commits, in its own
// authoritative order.
func (df *DocFile) StartJournalDetached() error {
	j, err := CreateJournal(df.fsys, JournalPath(df.Path), baseHeader(df.crc), df.replayed)
	if err != nil {
		return err
	}
	df.journal = j
	df.stale = false
	return nil
}

// AppendRecord journals one already-encoded edit record (detached mode).
// Errors latch inside the journal; the next Sync checkpoints by saving the
// whole document, so a sick journal degrades durability but never
// correctness.
func (df *DocFile) AppendRecord(payload string) error {
	if df.journal == nil || df.stale {
		return nil
	}
	return df.journal.Append(payload)
}

// FileCRC returns the CRC-32 of the document file's bytes as this DocFile
// last read or wrote them: the whole file at Load, and the bytes written
// by the last successful Save.
func (df *DocFile) FileCRC() uint32 { return df.crc }

// logEdit is the document's edit logger. An unjournalable edit appends the
// reset marker, forces it to disk, and stops logging until the next
// checkpoint; replay will stop at the marker rather than reconstruct a
// wrong document.
func (df *DocFile) logEdit(rec text.EditRecord) {
	if df.journal == nil || df.stale || df.journal.Err() != nil {
		return
	}
	if rec.Kind == text.RecReset {
		df.reset(rec.Text)
		return
	}
	// Append errors latch inside the journal; Sync surfaces them and
	// checkpoints.
	_ = df.journal.Append(text.EncodeRecord(rec))
}

// reset appends the reset marker, forces it to disk, and stops logging
// until the next checkpoint; replay will stop at the marker rather than
// reconstruct a wrong document.
func (df *DocFile) reset(reason string) {
	if df.journal != nil && !df.stale && df.journal.Err() == nil {
		_ = df.journal.Append(text.EncodeRecord(text.EditRecord{Kind: text.RecReset, Text: reason}))
		_ = df.journal.Sync()
	}
	df.stale = true
	if df.OnReset != nil {
		df.OnReset(reason)
	}
}

// Sync is the idle-time autosave step: it makes the journaled edits
// durable. If the journal can no longer represent the document (a reset
// marker or a latched write error), it checkpoints by saving the whole
// document instead.
func (df *DocFile) Sync() error {
	if df.journal == nil {
		return nil
	}
	if df.stale || df.journal.Err() != nil {
		return df.Save()
	}
	return df.journal.Sync()
}

// Save atomically writes the document to its path and rotates the journal
// to a fresh one bound to the new bytes.
func (df *DocFile) Save() error {
	ix, err := save(df.fsys, df.Path, df.Doc)
	if err != nil {
		return err
	}
	df.crc = ix.DocCRC
	df.Doc.MarkClean()
	df.replayed = nil
	if df.journal == nil {
		return nil
	}
	// Rotate: the old journal (bound to the old bytes) is atomically
	// replaced by an empty one bound to the new bytes. Its handle's errors
	// no longer matter — the records it guarded are in the saved file.
	_ = df.journal.Close()
	df.journal = nil
	j, err := CreateJournal(df.fsys, JournalPath(df.Path), baseHeader(df.crc), nil)
	if err != nil {
		df.stale = false
		return fmt.Errorf("document saved, but journaling could not restart: %w", err)
	}
	df.journal = j
	df.stale = false
	if df.attached {
		// A checkpoint often follows a reset (a freshly embedded
		// component); anything embedded since the last wiring pass starts
		// journaling from here.
		df.wireComponents()
	}
	return nil
}

// Dirty reports whether the document has edits not yet in the saved file.
func (df *DocFile) Dirty() bool { return df.Doc.Dirty() }

// Close ends the session cleanly: logging stops and the journal file is
// removed. Discarding unsaved edits on an orderly exit is deliberate —
// the user chose not to save — so only a crash leaves a journal behind.
func (df *DocFile) Close() error {
	df.Doc.SetEditLogger(nil)
	// A streamed document's tail loader holds the file open; release it.
	// Content never faulted in is simply never read — the file keeps it.
	df.Doc.SetTailLoader(nil)
	if df.journal == nil {
		return nil
	}
	_ = df.journal.Close()
	df.journal = nil
	if Exists(df.fsys, JournalPath(df.Path)) {
		return df.fsys.Remove(JournalPath(df.Path))
	}
	return nil
}
