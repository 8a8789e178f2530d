package docserve

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"atk/internal/chart"
	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/datastream"
	"atk/internal/persist"
	"atk/internal/table"
	"atk/internal/text"
)

// End-to-end component replication: a table embedded through one replica
// appears on every other, its cell edits travel as table ops (no
// checkpoint, no resync), and a chart observing the table on a *remote*
// replica repaints live when the cell changes. This is the acceptance
// test for the internal/ops subsystem. A class.Registry belongs to one
// goroutine, so the host and every client get their own, as in ezserve.

func componentReg(t *testing.T) *class.Registry {
	t.Helper()
	reg := class.NewRegistry()
	if err := text.Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := table.Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := chart.Register(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

// countObserver counts change notifications.
type countObserver struct{ n int }

func (o *countObserver) ObservedChanged(core.DataObject, core.Change) { o.n++ }

// replicaTable finds the (single) embedded table on a replica.
func replicaTable(t *testing.T, c *Client) *table.Data {
	t.Helper()
	for _, e := range c.Doc().Embeds() {
		if td, ok := e.Obj.(*table.Data); ok {
			return td
		}
	}
	t.Fatal("replica has no embedded table")
	return nil
}

func TestTableCollabLiveChart(t *testing.T) {
	// The host's own replica needs a registry too: it materializes the
	// embed op's payload into a live component like any client does.
	hostDoc := newDoc(t, "quarterly numbers: \n")
	hostDoc.SetRegistry(componentReg(t))
	h := NewHost("d", hostDoc, HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", componentReg(t))
	b := pipeClient(t, srv, "d", "bob", componentReg(t))

	// Alice embeds a table mid-text; Bob receives the embed op and grows
	// an identical live component.
	td := table.New(3, 3)
	if err := td.SetNumber(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Embed(10, td, ""); err != nil {
		t.Fatalf("embed: %v", err)
	}
	convergeAll(t, h, a, b)

	tb := replicaTable(t, b)
	if v, err := tb.Value(0, 0); err != nil || v != 1 {
		t.Fatalf("bob's table seed cell = %v, %v", v, err)
	}

	// Bob charts his replica of the table. The chart observes the table;
	// a committed remote cell op must repaint it with no extra plumbing.
	ch := chart.New(tb, 0, 0, 2, 2)
	obs := &countObserver{}
	ch.AddObserver(obs)

	// Baselines: the cell exchange must cost zero snapshot resyncs and
	// zero style checkpoints. (SnapResyncs counts every snapshot attach,
	// including Connect's first — measure the delta.)
	before := h.Stats()

	// Concurrent edits: Alice writes a cell while Bob types text. Both
	// must commute; the replicas stay byte-identical.
	ta := replicaTable(t, a)
	if err := ta.SetNumber(1, 1, 42); err != nil {
		t.Fatal(err)
	}
	if err := ta.SetText(2, 0, "total"); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, b.Doc(), 0, "Q3 ")
	convergeAll(t, h, a, b)

	if obs.n == 0 {
		t.Fatal("bob's chart never repainted on the remote cell edit")
	}
	if v, err := tb.Value(1, 1); err != nil || v != 42 {
		t.Fatalf("bob's table cell (1,1) = %v, %v", v, err)
	}
	cell, err := tb.Cell(2, 0)
	if err != nil || cell.Str != "total" {
		t.Fatalf("bob's table cell (2,0) = %+v, %v", cell, err)
	}

	after := h.Stats()
	if after.SnapResyncs != before.SnapResyncs {
		t.Fatalf("cell exchange forced %d snapshot resyncs", after.SnapResyncs-before.SnapResyncs)
	}
	if after.StyleCheckpoints != before.StyleCheckpoints {
		t.Fatalf("table-only commits forced %d style checkpoints", after.StyleCheckpoints-before.StyleCheckpoints)
	}
	if after.TableOps < 2 {
		t.Fatalf("host counted %d table ops, want >= 2", after.TableOps)
	}
	if after.EmbedOps != 1 {
		t.Fatalf("host counted %d embed ops, want 1", after.EmbedOps)
	}
	if after.UnjournalableResets != 0 {
		t.Fatalf("host counted %d unjournalable resets", after.UnjournalableResets)
	}
	if a.Resets != 0 || b.Resets != 0 {
		t.Fatalf("client resets: alice %d, bob %d", a.Resets, b.Resets)
	}
}

// Structural concurrency: two replicas mutate the same table's shape and
// cells at once; the transform converges them byte-identically.
func TestTableCollabConcurrentStructure(t *testing.T) {
	hostDoc := newDoc(t, "x")
	hostDoc.SetRegistry(componentReg(t))
	h := NewHost("d", hostDoc, HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", componentReg(t))
	b := pipeClient(t, srv, "d", "bob", componentReg(t))

	td := table.New(2, 2)
	if err := a.Embed(1, td, ""); err != nil {
		t.Fatal(err)
	}
	convergeAll(t, h, a, b)

	ta, tb := replicaTable(t, a), replicaTable(t, b)
	// Alice inserts a row at 0 and writes below it; Bob concurrently
	// writes the old cell (0,0) — which must land in the shifted row.
	if err := ta.InsertRows(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := ta.SetText(0, 0, "header"); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetNumber(0, 0, 9); err != nil {
		t.Fatal(err)
	}
	convergeAll(t, h, a, b)

	rows, cols := tb.Dims()
	if rows != 3 || cols != 2 {
		t.Fatalf("bob's table is %dx%d, want 3x2", rows, cols)
	}
	if got := encodeDoc(t, a.Doc()); !bytes.Equal(got, encodeDoc(t, b.Doc())) {
		t.Fatal("replicas diverged after concurrent structural edits")
	}
}

// Host durability for component ops: after a crash the journal replays
// the embed and the synced cell ops onto the base — the table comes back
// with its committed state, from bare files, with no live host involved.
func TestTableCollabHostCrashRecovery(t *testing.T) {
	mem := persist.NewMemFS()
	if err := persist.SaveDocument(mem, "doc.d", newDoc(t, "report ")); err != nil {
		t.Fatal(err)
	}
	h, err := OpenHostFile(mem, "doc.d", componentReg(t), HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	c := pipeClient(t, srv, "doc.d", "writer", componentReg(t))

	td := table.New(2, 2)
	if err := c.Embed(7, td, ""); err != nil {
		t.Fatal(err)
	}
	tc := replicaTable(t, c)
	if err := tc.SetNumber(0, 1, 314); err != nil {
		t.Fatal(err)
	}
	if err := tc.InsertRows(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h.SyncNow(); err != nil {
		t.Fatal(err)
	}

	// One more cell op past the sync point: a crash loses only this tail.
	if err := tc.SetNumber(1, 0, 999); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	mem.Crash()

	df, err := persist.Load(mem, "doc.d", componentReg(t), datastream.Strict)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer df.Close()
	// A crash recovery reports the replayed-journal diagnostic; anything
	// beyond that one informational line means a frame failed to apply.
	if len(df.RecoveryDiags) > 1 {
		t.Fatalf("recovery diagnostics: %v", df.RecoveryDiags)
	}
	var rt *table.Data
	for _, e := range df.Doc.Embeds() {
		if tdd, ok := e.Obj.(*table.Data); ok {
			rt = tdd
		}
	}
	if rt == nil {
		t.Fatal("recovered document lost the embedded table")
	}
	if v, err := rt.Value(0, 1); err != nil || v != 314 {
		t.Fatalf("recovered cell (0,1) = %v, %v — synced op did not replay", v, err)
	}
	if rows, _ := rt.Dims(); rows != 3 {
		t.Fatalf("recovered table has %d rows, want 3 (synced row insert lost)", rows)
	}
	if v, _ := rt.Value(1, 0); v == 999 {
		t.Fatal("unsynced tail op survived the crash")
	}
}

// Clients join a document with an embedded table while a writer sets
// cells and inserts rows. The table is a live object that commits mutate
// in place, so a join must encode it as it stands at the join's seq: an
// op committed after that point reaches the joiner only through its
// queue, and a snapshot that already held it would apply it twice. Every
// joiner must converge byte-identically. (Encoding a copy that shared
// the table outside the host lock raced with the commits: the race
// detector saw the encoder read cells that a commit was writing.)
func TestTableCollabJoinDuringCellEdits(t *testing.T) {
	hostDoc := newDoc(t, "cells: ")
	hostDoc.SetRegistry(componentReg(t))
	h := NewHost("d", hostDoc, HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	w := pipeClient(t, srv, "d", "writer", componentReg(t))
	td := table.New(3, 3)
	if err := w.Embed(7, td, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			err := td.SetNumber(i%3, (i/3)%3, float64(i))
			if err == nil && i%16 == 0 {
				err = td.InsertRows(i%2, 1)
			}
			if err == nil {
				err = w.Sync(5 * time.Second)
			}
			if err != nil {
				done <- err
				return
			}
		}
	}()
	var joiners []*Client
	for i := 0; i < 40; i++ {
		joiners = append(joiners, pipeClient(t, srv, "d", fmt.Sprintf("joiner%d", i), componentReg(t)))
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	convergeAll(t, h, append(joiners, w)...)
	if st := h.Stats(); st.TableOps == 0 || st.SnapResyncs < 2 {
		t.Fatalf("no joins during cell edits: %d table ops, %d snapshot joins", st.TableOps, st.SnapResyncs)
	}
}
