package persist

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// --- AtomicWrite ---

func TestAtomicWriteReplacesWholeFile(t *testing.T) {
	mem := NewMemFS()
	put := func(content string) {
		err := AtomicWrite(mem, "f", func(w io.Writer) error {
			_, werr := io.WriteString(w, content)
			return werr
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	put("first version")
	put("second, longer version entirely")
	b, err := ReadFile(mem, "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "second, longer version entirely" {
		t.Fatalf("got %q", b)
	}
	// The whole sequence is durable: a crash now changes nothing.
	mem.Crash()
	b, err = ReadFile(mem, "f")
	if err != nil || string(b) != "second, longer version entirely" {
		t.Fatalf("after crash: %q, %v", b, err)
	}
	if Exists(mem, "f.tmp") {
		t.Fatal("temp file left behind")
	}
}

func TestAtomicWriteFailureKeepsOldFile(t *testing.T) {
	mem := NewMemFS()
	if err := AtomicWrite(mem, "f", func(w io.Writer) error {
		_, werr := io.WriteString(w, "precious old content")
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := AtomicWrite(mem, "f", func(w io.Writer) error {
		_, _ = io.WriteString(w, "half of the new")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	b, rerr := ReadFile(mem, "f")
	if rerr != nil || string(b) != "precious old content" {
		t.Fatalf("old file damaged: %q, %v", b, rerr)
	}
	if Exists(mem, "f.tmp") {
		t.Fatal("temp file left behind after failed write")
	}
}

func TestAtomicWriteEveryCrashPointIsOldOrNew(t *testing.T) {
	// Learn the scenario length, then crash at every point.
	probe := NewFaultFS(NewMemFS())
	seed := func(fsys FS) error {
		return AtomicWrite(fsys, "f", func(w io.Writer) error {
			_, werr := io.WriteString(w, "OLD")
			return werr
		})
	}
	update := func(fsys FS) {
		_ = AtomicWrite(fsys, "f", func(w io.Writer) error {
			_, werr := io.WriteString(w, "NEW CONTENT, DIFFERENT LENGTH")
			return werr
		})
	}
	if err := seed(probe.Inner); err != nil {
		t.Fatal(err)
	}
	update(probe)
	total := probe.Ops()
	if total < 5 { // create, write, fsync, close, rename, syncdir
		t.Fatalf("scenario too short: %d ops (%v)", total, probe.Trace())
	}
	for n := 1; n <= total; n++ {
		mem := NewMemFS()
		if err := seed(mem); err != nil {
			t.Fatal(err)
		}
		ffs := NewFaultFS(mem)
		ffs.CrashAfter = n
		ffs.OnCrash = mem.Crash
		update(ffs)
		if !ffs.Crashed() {
			t.Fatalf("crash point %d never fired", n)
		}
		b, err := ReadFile(mem, "f")
		if err != nil {
			t.Fatalf("crash point %d: file missing: %v", n, err)
		}
		if got := string(b); got != "OLD" && got != "NEW CONTENT, DIFFERENT LENGTH" {
			t.Fatalf("crash point %d: torn file %q (trace %v)", n, got, ffs.Trace())
		}
	}
}

// --- MemFS durability model ---

func TestMemFSUnsyncedDataDiesInCrash(t *testing.T) {
	mem := NewMemFS()
	f, _ := mem.Create("f")
	io.WriteString(f, "never synced")
	f.Close()
	mem.Crash()
	if Exists(mem, "f") {
		t.Fatal("unsynced file survived the crash")
	}
}

func TestMemFSSyncedDataButUnsyncedName(t *testing.T) {
	// fsync(file) without fsync(dir): the classic half measure. The data
	// is stable but nothing durable names it.
	mem := NewMemFS()
	f, _ := mem.Create("f")
	io.WriteString(f, "synced data")
	f.Sync()
	f.Close()
	mem.Crash()
	if Exists(mem, "f") {
		t.Fatal("file name survived a crash with no directory sync")
	}
}

func TestMemFSRenameNotDurableUntilSyncDir(t *testing.T) {
	mem := NewMemFS()
	f, _ := mem.Create("a")
	io.WriteString(f, "content")
	f.Sync()
	f.Close()
	if err := mem.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	if err := mem.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	mem.Crash() // rename never made durable
	if Exists(mem, "b") || !Exists(mem, "a") {
		t.Fatal("un-synced rename survived the crash")
	}
	if b, _ := ReadFile(mem, "a"); string(b) != "content" {
		t.Fatalf("content lost: %q", b)
	}
}

func TestMemFSAppendRevertsToLastSync(t *testing.T) {
	mem := NewMemFS()
	f, _ := mem.Create("f")
	io.WriteString(f, "base|")
	f.Sync()
	f.Close()
	mem.SyncDir(".")

	a, _ := mem.OpenAppend("f")
	io.WriteString(a, "synced|")
	a.Sync()
	io.WriteString(a, "lost")
	a.Close()
	mem.Crash()
	b, err := ReadFile(mem, "f")
	if err != nil || string(b) != "base|synced|" {
		t.Fatalf("got %q, %v", b, err)
	}
}

// --- Journal framing and replay ---

func mustJournal(t *testing.T, fsys FS, path string, recs ...string) *Journal {
	t.Helper()
	j, err := CreateJournal(fsys, path, "base 00000000", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	mem := NewMemFS()
	recs := []string{
		"i 0 hello world",
		"d 3 2",
		"s 0 4 bold",
		// Long and non-ASCII payloads exercise the line discipline:
		// continuation wrapping and \u escapes must round-trip.
		"i 5 " + strings.Repeat("long payload ", 30),
		`i 9 ünïcode — § and a tab:	end`,
	}
	j := mustJournal(t, mem, "j", recs...)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(mem, "j")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged {
		t.Fatalf("damaged: %s", rep.Diag)
	}
	if rep.Header != "base 00000000" {
		t.Fatalf("header %q", rep.Header)
	}
	if len(rep.Records) != len(recs) {
		t.Fatalf("got %d records, want %d", len(rep.Records), len(recs))
	}
	for i := range recs {
		if rep.Records[i] != recs[i] {
			t.Fatalf("record %d: %q != %q", i, rep.Records[i], recs[i])
		}
	}
	// Journal files obey the datastream line discipline: nothing over
	// MaxLine, nothing but printable ASCII and tabs.
	b, _ := ReadFile(mem, "j")
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		if len(line) > 79 {
			t.Fatalf("journal line over 79 bytes: %q", line)
		}
		for _, c := range []byte(line) {
			if (c < 32 || c > 126) && c != '\t' {
				t.Fatalf("non-ASCII byte %#x in journal line %q", c, line)
			}
		}
	}
}

// TestJournalRecordNotValidUTF8: a payload holding bytes that are not
// valid UTF-8 reads back intact, each such byte as U+FFFD (as the escape
// encoder writes it), and the records after it still replay.
func TestJournalRecordNotValidUTF8(t *testing.T) {
	mem := NewMemFS()
	j := mustJournal(t, mem, "j", "i 0 0\x99\xe2\x9c!", "i 1 after")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(mem, "j")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged || len(rep.Records) != 2 {
		t.Fatalf("damaged=%v (%s), %d records", rep.Damaged, rep.Diag, len(rep.Records))
	}
	if want := "i 0 0\uFFFD\uFFFD\uFFFD!"; rep.Records[0] != want || rep.Records[1] != "i 1 after" {
		t.Fatalf("records %q, want %q then %q", rep.Records, want, "i 1 after")
	}
}

func TestJournalMissing(t *testing.T) {
	if _, err := ReplayJournal(NewMemFS(), "nope"); err != ErrNoJournal {
		t.Fatalf("err = %v, want ErrNoJournal", err)
	}
}

func TestJournalTruncatedTailTolerated(t *testing.T) {
	mem := NewMemFS()
	j := mustJournal(t, mem, "j", "i 0 one", "i 3 two", "i 6 three")
	j.Close()
	whole, _ := ReadFile(mem, "j")

	// Record boundaries: a cut exactly at one looks like a journal where
	// fewer records were ever appended — valid and undamaged. A cut
	// anywhere else is a torn record and must raise the damage flag.
	boundary := map[int]int{} // offset -> record count at that offset
	recs := []string{"base 00000000", "i 0 one", "i 3 two", "i 6 three"}
	for i := range recs {
		boundary[len(encodeRecords(JournalMagic, recs[:i+1]))] = i
	}

	// Chop the file at every length; replay must never error, never
	// return a record that wasn't written, and keep every record whose
	// bytes fully survive.
	for cut := 0; cut < len(whole); cut++ {
		rep := ReplayJournalBytes(whole[:cut])
		if len(rep.Records) > 3 {
			t.Fatalf("cut %d: invented records: %v", cut, rep.Records)
		}
		for i, r := range rep.Records {
			want := []string{"i 0 one", "i 3 two", "i 6 three"}[i]
			if r != want {
				t.Fatalf("cut %d: record %d = %q, want %q", cut, i, r, want)
			}
		}
		if want, ok := boundary[cut]; ok {
			if rep.Damaged || len(rep.Records) != want {
				t.Fatalf("cut %d at boundary: damaged=%v records=%d want %d",
					cut, rep.Damaged, len(rep.Records), want)
			}
		} else if !rep.Damaged {
			t.Fatalf("cut %d mid-record: no damage flag (%d records)", cut, len(rep.Records))
		}
	}
}

func TestJournalCorruptInteriorStopsReplay(t *testing.T) {
	mem := NewMemFS()
	j := mustJournal(t, mem, "j", "i 0 aaa", "i 3 bbb", "i 6 ccc")
	j.Close()
	b, _ := ReadFile(mem, "j")
	// Flip a byte inside the second record's payload.
	s := strings.Replace(string(b), "bbb", "bXb", 1)
	rep := ReplayJournalBytes([]byte(s))
	if !rep.Damaged {
		t.Fatal("corruption not detected")
	}
	if len(rep.Records) != 1 || rep.Records[0] != "i 0 aaa" {
		t.Fatalf("kept %v, want just the first record", rep.Records)
	}
}

func TestJournalRejectsSplicedSequence(t *testing.T) {
	// Two individually valid records with a gap in the sequence: replay
	// must stop at the gap rather than silently skip an edit.
	body := encodeRecords(JournalMagic, []string{"base 00000000", "i 0 first"})
	body, _ = appendFrameRecord(body, nil, 3, "i 9 skipped ahead")
	rep := ReplayJournalBytes(body)
	if !rep.Damaged || len(rep.Records) != 1 {
		t.Fatalf("damaged=%v records=%v", rep.Damaged, rep.Records)
	}
}

func TestJournalBatchedSync(t *testing.T) {
	mem := NewMemFS()
	j, err := CreateJournal(mem, "j", "base 00000000", nil)
	if err != nil {
		t.Fatal(err)
	}
	j.BatchEvery = 3
	for i := 0; i < 7; i++ {
		if err := j.Append("i 0 x"); err != nil {
			t.Fatal(err)
		}
	}
	// 7 appends, batch of 3: two auto-syncs at 3 and 6; the 7th is in the
	// page cache only. A crash now keeps exactly 6.
	mem.Crash()
	rep, err := ReplayJournal(mem, "j")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 6 {
		t.Fatalf("recovered %d records, want 6", len(rep.Records))
	}
	if rep.Damaged {
		t.Fatalf("unsynced tail must vanish cleanly, got damage: %s", rep.Diag)
	}
}

func TestOpenJournalRefusesDamaged(t *testing.T) {
	if _, err := OpenJournal(NewMemFS(), "j", &Replay{Damaged: true}); err == nil {
		t.Fatal("OpenJournal accepted a damaged replay")
	}
}

func TestOpenJournalContinuesSequence(t *testing.T) {
	mem := NewMemFS()
	j := mustJournal(t, mem, "j", "i 0 one")
	j.Close()
	rep, err := ReplayJournal(mem, "j")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(mem, "j", rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append("i 3 two"); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = ReplayJournal(mem, "j")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged || len(rep.Records) != 2 || rep.Records[1] != "i 3 two" {
		t.Fatalf("damaged=%v records=%v (%s)", rep.Damaged, rep.Records, rep.Diag)
	}
}

func TestJournalLatchesWriteError(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	j, err := CreateJournal(ffs, "j", "base 00000000", nil)
	if err != nil {
		t.Fatal(err)
	}
	j.BatchEvery = 1
	if err := j.Append("i 0 ok"); err != nil {
		t.Fatal(err)
	}
	ffs.FailWriteAt = ffs.writes + 1
	if err := j.Append("i 2 doomed"); err == nil {
		t.Fatal("short write not reported")
	}
	// Latched: later appends must refuse rather than write past a hole.
	if err := j.Append("i 4 after"); err == nil {
		t.Fatal("append after failure accepted")
	}
	if j.Err() == nil {
		t.Fatal("no latched error")
	}
	// The reader sees the intact prefix; the half-written record is
	// rejected by its CRC.
	rep, err := ReplayJournal(mem, "j")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 || rep.Records[0] != "i 0 ok" {
		t.Fatalf("records = %v", rep.Records)
	}
	if !rep.Damaged {
		t.Fatal("torn tail not reported")
	}
}

// TestJournalCloseFlushesBatchTail crashes immediately after Close: the
// records of the unfinished fsync batch were acknowledged by Append, so
// Close must make them durable before letting go of the file handle.
func TestJournalCloseFlushesBatchTail(t *testing.T) {
	mem := NewMemFS()
	j, err := CreateJournal(mem, "j", "base 00000000", nil)
	if err != nil {
		t.Fatal(err)
	}
	j.BatchEvery = 100 // no automatic fsync within this test
	for i := 0; i < 3; i++ {
		if err := j.Append("i 0 x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	rep, err := ReplayJournal(mem, "j")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged || len(rep.Records) != 3 {
		t.Fatalf("after crash-past-Close: damaged=%v records=%d want 3 (%s)",
			rep.Damaged, len(rep.Records), rep.Diag)
	}
}

// TestJournalCloseFlushesDespiteLatchedError is the sharper regression: an
// append fails (ENOSPC) and latches, then the journal is closed and the
// machine dies. The records acknowledged BEFORE the failure were written
// but never fsynced — the old Close skipped the flush because Sync
// returned the latched error first, silently losing them. Close must
// best-effort-sync the acknowledged prefix; replay then drops the torn
// tail of the failed append and keeps everything before it.
func TestJournalCloseFlushesDespiteLatchedError(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	j, err := CreateJournal(ffs, "j", "base 00000000", nil)
	if err != nil {
		t.Fatal(err)
	}
	j.BatchEvery = 100
	if err := j.Append("i 0 acknowledged"); err != nil {
		t.Fatal(err)
	}
	ffs.FailWriteAt = ffs.writes + 1
	if err := j.Append("i 12 doomed"); err == nil {
		t.Fatal("short write not reported")
	}
	if err := j.Close(); err == nil {
		t.Fatal("Close must surface the latched error")
	}
	if j.Err() == nil {
		t.Fatal("error must stay latched after Close")
	}
	mem.Crash()
	rep, err := ReplayJournal(mem, "j")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 || rep.Records[0] != "i 0 acknowledged" {
		t.Fatalf("acknowledged record lost: records=%v damaged=%v (%s)",
			rep.Records, rep.Damaged, rep.Diag)
	}
	if !rep.Damaged {
		t.Fatal("the torn half-written record should read as damage")
	}
}
