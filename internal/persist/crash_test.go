package persist

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"atk/internal/class"
	"atk/internal/datastream"
	"atk/internal/text"
)

func newReg(t *testing.T) *class.Registry {
	t.Helper()
	reg := class.NewRegistry()
	if err := text.Register(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

// seedDoc durably writes the starting document.
func seedDoc(t *testing.T, fsys FS, content string) {
	t.Helper()
	if err := SaveDocument(fsys, "doc.d", text.NewString(content)); err != nil {
		t.Fatal(err)
	}
}

func load(t *testing.T, fsys FS, reg *class.Registry) *DocFile {
	t.Helper()
	df, err := Load(fsys, "doc.d", reg, datastream.Strict)
	if err != nil {
		t.Fatal(err)
	}
	return df
}

// --- DocFile lifecycle ---

func TestDocFileCleanLoadIsClean(t *testing.T) {
	mem := NewMemFS()
	seedDoc(t, mem, "hello\n")
	df := load(t, mem, newReg(t))
	if df.Dirty() {
		t.Fatal("freshly loaded document reports dirty")
	}
	if df.Replayed != 0 || len(df.RecoveryDiags) != 0 {
		t.Fatalf("spurious recovery: %v", df.RecoveryDiags)
	}
	if err := df.Doc.Insert(0, "x"); err != nil {
		t.Fatal(err)
	}
	if !df.Dirty() {
		t.Fatal("edit did not mark the document dirty")
	}
}

func TestDocFileJournalRecovery(t *testing.T) {
	mem := NewMemFS()
	reg := newReg(t)
	seedDoc(t, mem, "The quick brown fox\n")

	// Session one: edit, sync the journal, then the machine dies.
	df := load(t, mem, reg)
	if err := df.StartJournal(); err != nil {
		t.Fatal(err)
	}
	if err := df.Doc.Insert(0, "RECOVERED "); err != nil {
		t.Fatal(err)
	}
	if err := df.Doc.SetStyle(0, 9, "bold"); err != nil {
		t.Fatal(err)
	}
	want := df.Doc.String()
	if err := df.Sync(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()

	// Session two: the journal is found and replayed.
	df2 := load(t, mem, reg)
	if df2.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2 (%v)", df2.Replayed, df2.RecoveryDiags)
	}
	if got := df2.Doc.String(); got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
	if runs := df2.Doc.Runs(); len(runs) != 1 || runs[0] != (text.Run{Start: 0, End: 9, Style: "bold"}) {
		t.Fatalf("recovered runs %v", runs)
	}
	if !df2.Dirty() {
		t.Fatal("recovered document must be dirty (file on disk is older)")
	}
	if len(df2.RecoveryDiags) == 0 || !strings.Contains(df2.RecoveryDiags[0], "recovered 2 unsaved edit") {
		t.Fatalf("diags = %v", df2.RecoveryDiags)
	}

	// A second crash before any save must not lose what recovery
	// restored: StartJournal carries the replayed records forward.
	if err := df2.StartJournal(); err != nil {
		t.Fatal(err)
	}
	if err := df2.Doc.Insert(df2.Doc.Len(), "more\n"); err != nil {
		t.Fatal(err)
	}
	if err := df2.Sync(); err != nil {
		t.Fatal(err)
	}
	want = df2.Doc.String()
	mem.Crash()

	df3 := load(t, mem, reg)
	if df3.Replayed != 3 {
		t.Fatalf("second recovery replayed %d, want 3 (%v)", df3.Replayed, df3.RecoveryDiags)
	}
	if got := df3.Doc.String(); got != want {
		t.Fatalf("second recovery got %q, want %q", got, want)
	}
}

func TestDocFileSaveRotatesJournal(t *testing.T) {
	mem := NewMemFS()
	reg := newReg(t)
	seedDoc(t, mem, "start\n")
	df := load(t, mem, reg)
	if err := df.StartJournal(); err != nil {
		t.Fatal(err)
	}
	_ = df.Doc.Insert(0, "edited ")
	if err := df.Save(); err != nil {
		t.Fatal(err)
	}
	if df.Dirty() {
		t.Fatal("dirty after save")
	}
	want := df.Doc.String()
	// Edits after the save journal against the new base.
	_ = df.Doc.Insert(0, "post-save ")
	wantPost := df.Doc.String()
	if err := df.Sync(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	df2 := load(t, mem, reg)
	if df2.Replayed != 1 {
		t.Fatalf("replayed %d, want 1 (%v)", df2.Replayed, df2.RecoveryDiags)
	}
	if got := df2.Doc.String(); got != wantPost {
		t.Fatalf("got %q, want %q", got, wantPost)
	}
	_ = want
}

func TestDocFileCloseDiscardsJournal(t *testing.T) {
	mem := NewMemFS()
	reg := newReg(t)
	seedDoc(t, mem, "start\n")
	df := load(t, mem, reg)
	if err := df.StartJournal(); err != nil {
		t.Fatal(err)
	}
	_ = df.Doc.Insert(0, "discard me ")
	_ = df.Sync()
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}
	if Exists(mem, JournalPath("doc.d")) {
		t.Fatal("journal survived a clean close")
	}
	df2 := load(t, mem, reg)
	if df2.Replayed != 0 {
		t.Fatal("edits resurrected after a deliberate discard")
	}
	if got := df2.Doc.String(); got != "start\n" {
		t.Fatalf("got %q", got)
	}
}

func TestDocFileStaleJournalIgnored(t *testing.T) {
	// A journal bound to different file bytes (the crash window between a
	// save's rename and the journal rotation) must be ignored, not
	// replayed over the wrong base.
	mem := NewMemFS()
	reg := newReg(t)
	seedDoc(t, mem, "old base\n")
	df := load(t, mem, reg)
	if err := df.StartJournal(); err != nil {
		t.Fatal(err)
	}
	_ = df.Doc.Insert(0, "journaled ")
	_ = df.Sync()
	// The file is replaced behind the DocFile's back (as if the crash hit
	// right after the save's rename); the journal still describes the old
	// bytes.
	if err := SaveDocument(mem, "doc.d", text.NewString("new base\n")); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	df2 := load(t, mem, reg)
	if df2.Replayed != 0 {
		t.Fatalf("replayed %d records from a stale journal", df2.Replayed)
	}
	if got := df2.Doc.String(); got != "new base\n" {
		t.Fatalf("got %q", got)
	}
	if len(df2.RecoveryDiags) == 0 || !strings.Contains(df2.RecoveryDiags[0], "does not match") {
		t.Fatalf("diags = %v", df2.RecoveryDiags)
	}
}

func TestDocFileResetCheckpoints(t *testing.T) {
	// Embedding a component cannot be journaled; the reset marker stops
	// the journal and the next Sync checkpoints the whole document.
	mem := NewMemFS()
	reg := newReg(t)
	seedDoc(t, mem, "host text\n")
	df := load(t, mem, reg)
	if err := df.StartJournal(); err != nil {
		t.Fatal(err)
	}
	_ = df.Doc.Insert(0, "typed ")
	if err := df.Doc.Embed(4, text.NewString("embedded"), ""); err != nil {
		t.Fatal(err)
	}
	if !df.stale {
		t.Fatal("reset did not mark the journal stale")
	}
	if err := df.Sync(); err != nil { // checkpoint
		t.Fatal(err)
	}
	if df.stale || df.Dirty() {
		t.Fatal("checkpoint did not clear stale/dirty state")
	}
	want := df.Doc.String()
	mem.Crash()
	df2 := load(t, mem, reg)
	if got := df2.Doc.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if df2.Replayed != 0 {
		t.Fatalf("replayed %d from a rotated journal", df2.Replayed)
	}
	// Crash *before* the checkpoint instead: replay stops at the reset
	// marker and says so, keeping the journaled prefix.
	mem2 := NewMemFS()
	seedDoc(t, mem2, "host text\n")
	df3 := load(t, mem2, reg)
	if err := df3.StartJournal(); err != nil {
		t.Fatal(err)
	}
	_ = df3.Doc.Insert(0, "typed ")
	if err := df3.Doc.Embed(4, text.NewString("embedded"), ""); err != nil {
		t.Fatal(err)
	}
	mem2.Crash() // reset marker was force-synced by logEdit
	df4 := load(t, mem2, reg)
	if df4.Replayed != 1 {
		t.Fatalf("replayed %d, want the 1 record before the reset (%v)", df4.Replayed, df4.RecoveryDiags)
	}
	if got := df4.Doc.String(); got != "typed host text\n" {
		t.Fatalf("got %q", got)
	}
	found := false
	for _, d := range df4.RecoveryDiags {
		if strings.Contains(d, "were not journaled") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no loss warning in %v", df4.RecoveryDiags)
	}
}

// --- Fault injection: errors without crashes ---

func TestSaveENOSPCKeepsOldFileAndJournal(t *testing.T) {
	mem := NewMemFS()
	reg := newReg(t)
	seedDoc(t, mem, "precious\n")
	ffs := NewFaultFS(mem)
	df, err := Load(ffs, "doc.d", reg, datastream.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if err := df.StartJournal(); err != nil {
		t.Fatal(err)
	}
	_ = df.Doc.Insert(0, "edited ")
	_ = df.Sync()

	ffs.FailWriteAt = ffs.writes + 1 // next write (the save's) hits ENOSPC
	if err := df.Save(); err == nil {
		t.Fatal("save on a full disk reported success")
	}
	// Old file intact, journaled edit intact: a crash now still recovers
	// the edit.
	mem.Crash()
	df2 := load(t, mem, reg)
	if got := df2.Doc.String(); got != "edited precious\n" {
		t.Fatalf("got %q", got)
	}
}

func TestSaveFsyncFailureReported(t *testing.T) {
	mem := NewMemFS()
	reg := newReg(t)
	seedDoc(t, mem, "precious\n")
	ffs := NewFaultFS(mem)
	df, err := Load(ffs, "doc.d", reg, datastream.Strict)
	if err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncAt = ffs.syncs + 1
	_ = df.Doc.Insert(0, "x")
	if err := df.Save(); err == nil {
		t.Fatal("save with failing fsync reported success")
	}
	// The old file must still be what a crash recovers.
	mem.Crash()
	df2 := load(t, mem, reg)
	if got := df2.Doc.String(); got != "precious\n" {
		t.Fatalf("got %q", got)
	}
}

// --- The crash-point matrix ---

// crashSession is one scripted editing session: load, journal, edit, sync,
// save mid-way, edit more. Errors are ignored — after the injected crash
// every filesystem call fails, which is exactly the point. save, when
// set, stands in for the session's one Save.
func crashSession(fsys FS, reg *class.Registry, record func(*text.Data), save func(*DocFile)) {
	rec := func(d *text.Data) {
		if record != nil {
			record(d)
		}
	}
	df, err := Load(fsys, "doc.d", reg, datastream.Strict)
	if err != nil {
		return
	}
	_ = df.StartJournal()
	doc := df.Doc
	_ = doc.Insert(0, "Title line\n")
	rec(doc)
	_ = doc.SetStyle(0, 5, "bold")
	rec(doc)
	_ = doc.Insert(doc.Len(), "paragraph one\n")
	rec(doc)
	_ = df.Sync()
	_ = doc.Delete(0, 6)
	rec(doc)
	if save != nil {
		save(df)
	} else {
		_ = df.Save()
	}
	_ = doc.Insert(doc.Len(), "after the save\n")
	rec(doc)
	_ = doc.Insert(3, "unicode β∂ £\n")
	rec(doc)
	_ = df.Sync()
	_ = doc.Delete(2, 4)
	rec(doc) // never synced: lost in any crash, legal to lose
}

// TestCrashPointMatrix is the acceptance property: kill the machine
// between every pair of filesystem operations in a full edit/sync/save
// session. Whatever the crash point, reopening must yield a document that
// is byte-identical (under datastream serialization) to the saved state
// plus some prefix of the edits — old or journaled, never torn. It runs
// on a short document and on one larger than the save's write buffer,
// whose save reaches the file in several writes; for that one, each of
// those writes also fails in turn (ENOSPC after a short write).
func TestCrashPointMatrix(t *testing.T) {
	t.Run("short", func(t *testing.T) {
		crashPointMatrix(t, "The quick brown fox jumps over the lazy dog.\n")
	})
	t.Run("past the write buffer", func(t *testing.T) {
		seed := bigContent(9000)
		if len(seed) < 2*saveBuffer {
			t.Fatalf("seed of %d bytes fits two save buffers", len(seed))
		}
		legal := crashPointMatrix(t, seed)
		saveWriteSweep(t, seed, legal)
	})
}

// crashPointMatrix runs the crash-point matrix over a session starting
// from seed and returns the legal recovered states.
func crashPointMatrix(t *testing.T, seed string) map[string]int {
	reg := newReg(t)

	// Legal outcomes: the seed state and every prefix of the session's
	// edit sequence (a mid-session save does not change the content, only
	// where it lives).
	legal := map[string]int{}
	states := 0
	addState := func(d *text.Data) {
		b, err := EncodeDocument(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := legal[string(b)]; !dup {
			legal[string(b)] = states
		}
		states++
	}
	addState(text.NewString(seed))
	shadow := NewMemFS()
	seedDoc(t, shadow, seed)
	crashSession(shadow, reg, addState, nil)

	// Learn the clean session's length in filesystem operations.
	probeMem := NewMemFS()
	seedDoc(t, probeMem, seed)
	probe := NewFaultFS(probeMem)
	crashSession(probe, reg, nil, nil)
	total := probe.Ops()
	if total < 20 {
		t.Fatalf("session too short to be interesting: %d ops", total)
	}

	for n := 1; n <= total; n++ {
		mem := NewMemFS()
		seedDoc(t, mem, seed)
		ffs := NewFaultFS(mem)
		ffs.CrashAfter = n
		ffs.OnCrash = mem.Crash
		crashSession(ffs, reg, nil, nil)
		if !ffs.Crashed() {
			t.Fatalf("crash point %d never fired", n)
		}
		checkLegal(t, fmt.Sprintf("crash point %d", n), mem, reg, legal, ffs.Trace())
	}

	// And the degenerate end point: the session finishes, then the crash.
	mem := NewMemFS()
	seedDoc(t, mem, seed)
	crashSession(mem, reg, nil, nil)
	mem.Crash()
	checkLegal(t, "post-session crash", mem, reg, legal, nil)
	return legal
}

// checkLegal reopens the document and requires one of the legal states.
func checkLegal(t *testing.T, what string, mem *MemFS, reg *class.Registry, legal map[string]int, trace []string) {
	t.Helper()
	df, err := Load(mem, "doc.d", reg, datastream.Strict)
	if err != nil {
		t.Fatalf("%s: document unreadable: %v\ntrace: %v", what, err, trace)
	}
	got, err := EncodeDocument(df.Doc)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if _, ok := legal[string(got)]; !ok {
		t.Errorf("%s: recovered a state outside the legal set\ntrace: %v\ngot:\n%.2000s", what, trace, got)
	}
}

// saveWriteSweep fails each write of the session's save in turn. The
// save must report the error and leave the old file, its sidecar and its
// journal exactly as they were; the session then goes on, and a reopen
// after a crash at its end must give a legal state.
func saveWriteSweep(t *testing.T, seed string, legal map[string]int) {
	reg := newReg(t)
	probeMem := NewMemFS()
	seedDoc(t, probeMem, seed)
	probe := NewFaultFS(probeMem)
	crashSession(probe, reg, nil, nil)
	var saveWrites []int // ordinals, among all writes, of the save's
	writes := 0
	for _, op := range probe.Trace() {
		_, op, _ = strings.Cut(op, ":")
		if strings.HasPrefix(op, "write ") {
			writes++
			if op == "write doc.d.tmp" {
				saveWrites = append(saveWrites, writes)
			}
		}
	}
	if len(saveWrites) < 2 {
		t.Fatalf("the save reached the file in %d writes; the sweep wants several", len(saveWrites))
	}
	t.Logf("the save reaches the file in %d writes", len(saveWrites))

	files := []string{"doc.d", IndexPath("doc.d"), JournalPath("doc.d")}
	snapshot := func(fsys FS) []string {
		var out []string
		for _, name := range files {
			b, err := ReadFile(fsys, name)
			if err != nil {
				t.Fatalf("reading %s: %v", name, err)
			}
			out = append(out, string(b))
		}
		return out
	}
	for _, k := range saveWrites {
		mem := NewMemFS()
		seedDoc(t, mem, seed)
		ffs := NewFaultFS(mem)
		ffs.FailWriteAt = k
		saved := false
		crashSession(ffs, reg, nil, func(df *DocFile) {
			saved = true
			before := snapshot(mem)
			if err := df.Save(); !errors.Is(err, ErrNoSpace) {
				t.Errorf("write %d failed, but the save returned %v", k, err)
			}
			for i, b := range snapshot(mem) {
				if b != before[i] {
					t.Errorf("write %d failed, and %s changed", k, files[i])
				}
			}
			if Exists(mem, "doc.d.tmp") {
				t.Errorf("write %d failed, and the temporary file is left behind", k)
			}
		})
		if !saved {
			t.Fatalf("write %d: the session never saved", k)
		}
		mem.Crash()
		checkLegal(t, fmt.Sprintf("failed write %d", k), mem, reg, legal, ffs.Trace())
	}
}

// TestCrashPointMatrixRecoveredPrefixesMonotonic re-runs a journal-only
// session (no mid-save) and checks a sharper property: later crash points
// never recover *less* than earlier ones once a sync has happened.
func TestCrashPointMatrixMonotonicDurability(t *testing.T) {
	reg := newReg(t)
	const seed = "abcdefghij\n"
	session := func(fsys FS) {
		df, err := Load(fsys, "doc.d", reg, datastream.Strict)
		if err != nil {
			return
		}
		_ = df.StartJournal()
		for i := 0; i < 6; i++ {
			_ = df.Doc.Insert(0, string(rune('A'+i)))
			_ = df.Sync()
		}
	}
	probeMem := NewMemFS()
	seedDoc(t, probeMem, seed)
	probe := NewFaultFS(probeMem)
	session(probe)
	total := probe.Ops()

	last := -1
	for n := 1; n <= total; n++ {
		mem := NewMemFS()
		seedDoc(t, mem, seed)
		ffs := NewFaultFS(mem)
		ffs.CrashAfter = n
		ffs.OnCrash = mem.Crash
		session(ffs)
		df, err := Load(mem, "doc.d", reg, datastream.Strict)
		if err != nil {
			t.Fatalf("crash point %d: %v", n, err)
		}
		if df.Replayed < last {
			t.Fatalf("crash point %d: recovered %d edits, but point %d recovered %d",
				n, df.Replayed, n-1, last)
		}
		last = df.Replayed
	}
	// Crash after the session completes: every synced edit must survive.
	mem := NewMemFS()
	seedDoc(t, mem, seed)
	session(mem)
	mem.Crash()
	df, err := Load(mem, "doc.d", reg, datastream.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if df.Replayed != 6 {
		t.Fatalf("post-session crash recovered %d edits, want all 6", df.Replayed)
	}
}
