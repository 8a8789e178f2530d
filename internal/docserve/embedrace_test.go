package docserve

import (
	"testing"
	"time"

	"atk/internal/table"
)

// A committed remote delete swallows the table's anchor: the component
// leaves the document on every replica. Edits the owner keeps making on
// the orphaned object must become local-only — not shipped with a stale
// anchor (which the host could never apply) and not an error.
func TestTableCollabOrphanedByDelete(t *testing.T) {
	hostDoc := newDoc(t, "abcdef")
	hostDoc.SetRegistry(componentReg(t))
	h := NewHost("d", hostDoc, HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", componentReg(t))
	b := pipeClient(t, srv, "d", "bob", componentReg(t))

	td := table.New(2, 2)
	if err := a.Embed(3, td, ""); err != nil {
		t.Fatal(err)
	}
	convergeAll(t, h, a, b)

	// Bob deletes the range holding the anchor; the embed vanishes.
	if err := b.Doc().Delete(1, 4); err != nil {
		t.Fatal(err)
	}
	convergeAll(t, h, a, b)
	if n := len(a.Doc().Embeds()); n != 0 {
		t.Fatalf("alice still has %d embeds after the covering delete", n)
	}

	// Alice's handle on the table still works — locally. The edit must
	// not replicate and must not kill the session.
	if err := td.SetNumber(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(5 * time.Second); err != nil {
		t.Fatalf("sync after orphaned edit: %v", err)
	}
	convergeAll(t, h, a, b)
	if a.Err() != nil || b.Err() != nil {
		t.Fatalf("client errors: alice %v, bob %v", a.Err(), b.Err())
	}
	if got := h.Stats().TableOps; got != 0 {
		t.Fatalf("orphaned edit reached the host: %d table ops", got)
	}
}

// Two clients race to embed their own tables into an empty document,
// then each edits its own table. The embeds commute as anchor inserts,
// so both tables must exist on every replica and both cell edits must
// land — this is exactly what concurrent first-writers in loadgen do.
func TestTableCollabEmbedRace(t *testing.T) {
	hostDoc := newDoc(t, "")
	hostDoc.SetRegistry(componentReg(t))
	h := NewHost("d", hostDoc, HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", componentReg(t))
	b := pipeClient(t, srv, "d", "bob", componentReg(t))

	ta := table.New(2, 2)
	tb := table.New(3, 3)
	// Both embed at 0 before either sees the other's op: a genuine race.
	if err := a.Embed(0, ta, ""); err != nil {
		t.Fatal(err)
	}
	if err := b.Embed(0, tb, ""); err != nil {
		t.Fatal(err)
	}
	convergeAll(t, h, a, b)

	if na, nb := len(a.Doc().Embeds()), len(b.Doc().Embeds()); na != 2 || nb != 2 {
		t.Fatalf("embeds after race: alice %d, bob %d, want 2", na, nb)
	}

	// Each writer edits the table it made — the loadgen table-writer loop.
	if err := ta.SetNumber(0, 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetNumber(1, 1, 8); err != nil {
		t.Fatal(err)
	}
	convergeAll(t, h, a, b)
	if a.Err() != nil || b.Err() != nil {
		t.Fatalf("client errors: alice %v, bob %v", a.Err(), b.Err())
	}
}
