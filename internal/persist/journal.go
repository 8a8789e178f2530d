package persist

import (
	"errors"
	"fmt"
	"path/filepath"
)

// The edit journal is an append-only write-ahead log in the CRC record
// format (see record.go). Record 0 is the header binding the journal to a
// specific saved document (by CRC of its bytes); the edit records follow.
// Replay is tolerant of a damaged tail — a crash mid-append leaves a torn
// last record, which is dropped with a diagnostic while everything before
// it is kept — but never trusts anything after the first damaged record.

// JournalMagic is the first line of every journal file.
const JournalMagic = "%atkjournal1"

// Journal errors.
var (
	// ErrNoJournal reports that no journal file exists.
	ErrNoJournal = errors.New("persist: no journal")
	// ErrJournalClosed reports an append to a closed journal.
	ErrJournalClosed = errors.New("persist: journal closed")
)

// DefaultBatchEvery is the default fsync batching: an explicit Sync (the
// idle autosave) or every Nth append flushes, so a burst of typing costs
// one fsync per batch, not per keystroke.
const DefaultBatchEvery = 8

// Journal is an append-only edit log open for writing.
type Journal struct {
	fsys FS
	path string
	f    File
	seq  uint64
	// BatchEvery bounds how many appends may ride on one fsync; 1 makes
	// every append durable immediately. Set before the first Append.
	BatchEvery int
	pending    int
	// unnamed reports that the rename which created the file is not yet
	// durable: the first flush of records fsyncs the directory as well.
	unnamed bool
	err     error
	// wbuf/scratch are reusable append buffers (see appendFrameRecord).
	wbuf    []byte
	scratch []byte
}

// CreateJournal writes a fresh journal at path containing the header and
// any carried-over records into a temporary file, renames it over path,
// and reopens it for appending; a crash mid-creation leaves either the
// previous journal or the complete new one. A journal created with
// records is durable when CreateJournal returns. One created without is
// not flushed, because it guards nothing yet: a crash may leave the
// previous journal in its place, or an empty or torn file, and recovery
// ignores both — the one is bound to other bytes than the file's (or
// holds the same records), the other has no header. The first flush of
// records fsyncs the file and then the directory.
func CreateJournal(fsys FS, path, header string, records []string) (*Journal, error) {
	return createJournal(fsys, path, header, records, len(records) > 0)
}

// createJournal is CreateJournal, with the new journal durable when it
// returns if durable is set: DocFile.Save sets it when the previous
// journal would not be ignored.
func createJournal(fsys FS, path, header string, records []string, durable bool) (*Journal, error) {
	if err := writeRecordFile(fsys, path, JournalMagic, append([]string{header}, records...), durable); err != nil {
		return nil, err
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &Journal{fsys: fsys, path: path, f: f, seq: uint64(len(records)), BatchEvery: DefaultBatchEvery, unnamed: !durable}, nil
}

// OpenJournal reopens an existing, fully valid journal for appending,
// continuing its sequence. The caller must have replayed it first and seen
// Damaged == false; appending after a torn tail would bury valid records
// behind junk. rep is that replay.
func OpenJournal(fsys FS, path string, rep *Replay) (*Journal, error) {
	if rep == nil || rep.Damaged {
		return nil, fmt.Errorf("persist: refusing to append to a damaged journal (rewrite it)")
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &Journal{fsys: fsys, path: path, f: f, seq: uint64(len(rep.Records)), BatchEvery: DefaultBatchEvery}, nil
}

// Append writes one record. Durability is batched: the record is on disk
// after the write but guaranteed stable only after the batch's fsync (every
// BatchEvery appends) or an explicit Sync. The first error latches: once an
// append fails the journal refuses further writes, so a disk-full journal
// cannot silently drop arbitrary interior records.
func (j *Journal) Append(rec string) error {
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return ErrJournalClosed
	}
	j.seq++
	j.wbuf, j.scratch = appendFrameRecord(j.wbuf[:0], j.scratch, j.seq, rec)
	if _, err := j.f.Write(j.wbuf); err != nil {
		j.err = fmt.Errorf("persist: journal append: %w", err)
		return j.err
	}
	j.pending++
	batch := j.BatchEvery
	if batch <= 0 {
		batch = DefaultBatchEvery
	}
	if j.pending >= batch {
		return j.Sync()
	}
	return nil
}

// Sync makes every appended record durable.
func (j *Journal) Sync() error {
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return ErrJournalClosed
	}
	if j.pending == 0 {
		return nil
	}
	if err := j.flush(); err != nil {
		j.err = err
		return j.err
	}
	return nil
}

// flush makes the pending records durable: it fsyncs the file and, the
// first time, the directory whose entry names it.
func (j *Journal) flush() error {
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("persist: journal sync: %w", err)
	}
	if j.unnamed {
		if err := j.fsys.SyncDir(filepath.Dir(j.path)); err != nil {
			return fmt.Errorf("persist: journal directory sync: %w", err)
		}
		j.unnamed = false
	}
	j.pending = 0
	return nil
}

// Seq returns the sequence number of the last appended record.
func (j *Journal) Seq() uint64 { return j.seq }

// Err returns the latched error, if any.
func (j *Journal) Err() error { return j.err }

// Close flushes every batched-but-unsynced record and closes the journal
// file (the file remains on disk; see DocFile for when it is discarded).
// The flush runs even when an earlier append latched an error: records
// acknowledged before the failure are on the file and deserve their fsync —
// replay tolerates the torn tail the failed append may have left, but it
// cannot recover records the kernel was never asked to keep. Any sync or
// close failure latches, so Err() keeps reporting it after Close.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.err
	if j.pending > 0 {
		if ferr := j.flush(); ferr != nil {
			if j.err == nil {
				j.err = ferr
			}
			if err == nil {
				err = j.err
			}
		}
	}
	if cerr := j.f.Close(); cerr != nil {
		if j.err == nil {
			j.err = fmt.Errorf("persist: journal close: %w", cerr)
		}
		if err == nil {
			err = j.err
		}
	}
	j.f = nil
	return err
}

// discard closes the journal without flushing its pending records: the
// saved file holds them, or the user chose to drop them.
func (j *Journal) discard() {
	if j.f != nil {
		_ = j.f.Close() // it can lose only records no one needs
		j.f = nil
	}
}

// Replay is the result of reading a journal back.
type Replay struct {
	// Header is record 0.
	Header string
	// Records are the valid records after the header, in order.
	Records []string
	// Damaged reports that the file ended in (or contained) an invalid
	// record; Records holds everything before the damage.
	Damaged bool
	// Diag describes the damage for the recovery report.
	Diag string
}

// ReplayJournal reads the journal at path with truncated-tail tolerance:
// it returns every consecutively valid record and stops at the first torn,
// corrupt, or out-of-sequence one. A missing file returns ErrNoJournal;
// only I/O errors are returned as errors — damage is data, not failure.
func ReplayJournal(fsys FS, path string) (*Replay, error) {
	b, err := ReadFile(fsys, path)
	if err != nil {
		if IsNotExist(err) {
			return nil, ErrNoJournal
		}
		return nil, err
	}
	return replayBytes(b), nil
}

// replayBytes parses journal content. Exposed to the fuzzer via
// ReplayJournalBytes.
func replayBytes(b []byte) *Replay {
	recs, err := parseRecords(b, JournalMagic)
	rep := &Replay{}
	if len(recs) > 0 {
		rep.Header, rep.Records = recs[0], recs[1:]
	}
	switch {
	case err != nil:
		rep.Damaged = true
		rep.Diag = fmt.Sprintf("%v; %d records kept", err, len(rep.Records))
	case len(recs) == 0:
		rep.Damaged = true
		rep.Diag = "journal has no header record"
	}
	return rep
}

// ReplayJournalBytes parses raw journal bytes (the fuzzing entry point).
func ReplayJournalBytes(b []byte) *Replay { return replayBytes(b) }
