package text

import (
	"math/rand"
	"strings"
	"testing"
)

// TestEncodeDecodeRecordRoundTrip pins the wire form of every record kind.
func TestEncodeDecodeRecordRoundTrip(t *testing.T) {
	cases := []EditRecord{
		{Kind: RecInsert, Pos: 0, Text: "hello"},
		{Kind: RecInsert, Pos: 42, Text: "spaces and\ttabs — ünïcode"},
		{Kind: RecDelete, Pos: 7, N: 3},
		{Kind: RecStyle},
		{Kind: RecStyle, Runs: []Run{{0, 5, "bold"}, {9, 12, "title"}}},
		{Kind: RecReset, Text: "embedded component"},
	}
	for _, want := range cases {
		got, err := DecodeRecord(EncodeRecord(want))
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", want, err)
		}
		if got.Kind != want.Kind || got.Pos != want.Pos || got.N != want.N || got.Text != want.Text {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
		if len(got.Runs) != len(want.Runs) {
			t.Fatalf("round trip runs %+v -> %+v", want.Runs, got.Runs)
		}
		for i := range got.Runs {
			if got.Runs[i] != want.Runs[i] {
				t.Fatalf("run %d: %+v -> %+v", i, want.Runs[i], got.Runs[i])
			}
		}
	}
}

// TestDecodeRecordRejectsGarbage checks malformed wire forms error out
// instead of producing half-parsed records.
func TestDecodeRecordRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"", "q 1 2", "i", "i x text", "i -4 text", "d 1", "d a b",
		"d -1 5", "s 1 2", "s 1 2 bold 3", "i 12", "zzz",
	} {
		if _, err := DecodeRecord(s); err == nil {
			t.Fatalf("DecodeRecord(%q) accepted", s)
		}
	}
}

// TestJournalMirrorsEdits is the core journaling property: replaying the
// logged records over a copy of the starting document reproduces the edited
// document — through inserts, deletes, style changes, undo, and redo.
func TestJournalMirrorsEdits(t *testing.T) {
	const seedText = "The quick brown fox\njumps over the lazy dog.\n"
	rng := rand.New(rand.NewSource(7))

	live := NewString(seedText)
	var log []EditRecord
	live.SetEditLogger(func(rec EditRecord) { log = append(log, rec) })

	words := []string{"alpha ", "β∂ ", "tabs\t", "nl\n", "x"}
	for i := 0; i < 400; i++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert
			pos := rng.Intn(live.Len() + 1)
			if err := live.Insert(pos, words[rng.Intn(len(words))]); err != nil {
				t.Fatal(err)
			}
		case op < 7: // delete
			if live.Len() == 0 {
				continue
			}
			pos := rng.Intn(live.Len())
			n := rng.Intn(live.Len() - pos + 1)
			if err := live.Delete(pos, n); err != nil {
				t.Fatal(err)
			}
		case op < 8: // style
			if live.Len() < 2 {
				continue
			}
			start := rng.Intn(live.Len() - 1)
			end := start + 1 + rng.Intn(live.Len()-start-1)
			if err := live.SetStyle(start, end, "bold"); err != nil {
				t.Fatal(err)
			}
		case op < 9:
			live.Undo()
		default:
			live.Redo()
		}
	}

	replayed := NewString(seedText)
	replayed.WithoutUndo(func() {
		for i, rec := range log {
			if rec.Kind == RecReset {
				t.Fatalf("record %d is a reset; none expected", i)
			}
			// Round-trip every record through the wire form on the way.
			decoded, err := DecodeRecord(EncodeRecord(rec))
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if err := replayed.ApplyRecord(decoded); err != nil {
				t.Fatalf("replaying record %d (%+v): %v", i, decoded, err)
			}
		}
	})

	if got, want := replayed.String(), live.String(); got != want {
		t.Fatalf("replayed content diverged:\n got %q\nwant %q", got, want)
	}
	lr, rr := live.Runs(), replayed.Runs()
	if len(lr) != len(rr) {
		t.Fatalf("replayed runs diverged: %+v vs %+v", rr, lr)
	}
	for i := range lr {
		if lr[i] != rr[i] {
			t.Fatalf("run %d: %+v vs %+v", i, rr[i], lr[i])
		}
	}
}

// TestEmbedLogsReset checks the unrepresentable-edit contract: embedding a
// component emits RecReset (not a bogus insert), and applying a reset
// record fails with ErrUnjournalable.
func TestEmbedLogsReset(t *testing.T) {
	d := NewString("before after")
	var log []EditRecord
	d.SetEditLogger(func(rec EditRecord) { log = append(log, rec) })

	child := NewString("embedded")
	if err := d.Embed(7, child, ""); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0].Kind != RecReset {
		t.Fatalf("embed logged %+v, want one RecReset", log)
	}
	if err := d.ApplyRecord(log[0]); err == nil {
		t.Fatal("ApplyRecord accepted a reset record")
	}

	// Undoing the embed is an ordinary delete — journalable again.
	log = nil
	if !d.Undo() {
		t.Fatal("undo failed")
	}
	if len(log) != 1 || log[0].Kind != RecDelete {
		t.Fatalf("undo of embed logged %+v, want one RecDelete", log)
	}

	// Redo re-embeds: reset again.
	log = nil
	if !d.Redo() {
		t.Fatal("redo failed")
	}
	if len(log) != 1 || log[0].Kind != RecReset {
		t.Fatalf("redo of embed logged %+v, want one RecReset", log)
	}
}

// TestApplyRecordRejectsBadStyleRuns checks the defensive validation on
// replayed style records.
func TestApplyRecordRejectsBadStyleRuns(t *testing.T) {
	d := NewString("0123456789")
	bad := []EditRecord{
		{Kind: RecStyle, Runs: []Run{{5, 3, "bold"}}},           // inverted
		{Kind: RecStyle, Runs: []Run{{0, 99, "bold"}}},          // out of range
		{Kind: RecStyle, Runs: []Run{{0, 4, "b"}, {2, 6, "b"}}}, // overlap
		{Kind: RecStyle, Runs: []Run{{0, 4, ""}}},               // empty name
		{Kind: RecInsert, Pos: 0, Text: string(AnchorRune)},
	}
	for _, rec := range bad {
		if err := d.ApplyRecord(rec); err == nil {
			t.Fatalf("ApplyRecord(%+v) accepted", rec)
		}
	}
	if strings.Contains(d.String(), string(AnchorRune)) {
		t.Fatal("anchor leaked into buffer")
	}
}

// TestApplyRecordDoesNotEchoIntoLogger pins the replication contract: a
// record applied via ApplyRecord while a SetEditLogger is installed must
// NOT be re-reported to the logger. A networked replica journals its own
// local edits through the logger; echoing an applied remote op back into
// that log would double it (and bounce it between replicas forever).
func TestApplyRecordDoesNotEchoIntoLogger(t *testing.T) {
	d := NewString("hello world")
	var logged []EditRecord
	d.SetEditLogger(func(rec EditRecord) { logged = append(logged, rec) })

	remote := []EditRecord{
		{Kind: RecInsert, Pos: 5, Text: " big"},
		{Kind: RecDelete, Pos: 0, N: 5},
		{Kind: RecStyle, Runs: []Run{{0, 4, "bold"}}},
	}
	for _, rec := range remote {
		if err := d.ApplyRecord(rec); err != nil {
			t.Fatalf("apply %+v: %v", rec, err)
		}
	}
	if len(logged) != 0 {
		t.Fatalf("ApplyRecord echoed %d records into the logger: %+v", len(logged), logged)
	}
	if got := d.String(); got != " big world" {
		t.Fatalf("document after remote ops = %q", got)
	}

	// Local edits must still reach the logger afterwards.
	if err := d.Insert(0, "a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 2 || logged[0].Kind != RecInsert || logged[1].Kind != RecDelete {
		t.Fatalf("local edits after ApplyRecord logged as %+v, want insert+delete", logged)
	}
}
