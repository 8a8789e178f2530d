package docserve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"atk/internal/class"
	"atk/internal/persist"
	"atk/internal/text"
)

func testReg(t *testing.T) *class.Registry {
	t.Helper()
	reg := class.NewRegistry()
	if err := text.Register(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

func newDoc(t *testing.T, s string) *text.Data {
	t.Helper()
	d := text.New()
	if s != "" {
		if err := d.Insert(0, s); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// pipeClient attaches a new client to srv over an in-process pipe.
func pipeClient(t *testing.T, srv *Server, doc, id string, reg *class.Registry) *Client {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go srv.HandleConn(sEnd)
	c, err := Connect(cEnd, doc, ClientOptions{ClientID: id, Registry: reg})
	if err != nil {
		t.Fatalf("connect %s: %v", id, err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// resumeVia reattaches c to srv over a fresh pipe.
func resumeVia(t *testing.T, srv *Server, c *Client) {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go srv.HandleConn(sEnd)
	if err := c.Resume(cEnd); err != nil {
		t.Fatalf("resume: %v", err)
	}
}

func mustInsert(t *testing.T, d *text.Data, pos int, s string) {
	t.Helper()
	if err := d.Insert(pos, s); err != nil {
		t.Fatal(err)
	}
}

func mustDelete(t *testing.T, d *text.Data, pos, n int) {
	t.Helper()
	if err := d.Delete(pos, n); err != nil {
		t.Fatal(err)
	}
}

// encodeDoc renders a replica for byte-identical comparison.
func encodeDoc(t *testing.T, d *text.Data) []byte {
	t.Helper()
	b, err := persist.EncodeDocument(d)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// convergeAll syncs every client, then waits for all of them to reach the
// host's final seq and asserts every replica is byte-identical to the host.
func convergeAll(t *testing.T, h *Host, clients ...*Client) {
	t.Helper()
	for i, c := range clients {
		if err := c.Sync(5 * time.Second); err != nil {
			t.Fatalf("client %d sync: %v", i, err)
		}
	}
	seq := h.Stats().Seq
	hostBytes, hostSeq, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if hostSeq != seq {
		t.Fatalf("host advanced from %d to %d after all clients synced", seq, hostSeq)
	}
	for i, c := range clients {
		if err := c.WaitSeq(seq, 5*time.Second); err != nil {
			t.Fatalf("client %d waiting for seq %d: %v", i, seq, err)
		}
		if got := encodeDoc(t, c.Doc()); !bytes.Equal(got, hostBytes) {
			t.Fatalf("client %d diverged:\n--- host ---\n%s\n--- client ---\n%s", i, hostBytes, got)
		}
	}
}

func TestServeTwoClientsPropagate(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "shared\n"), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)
	b := pipeClient(t, srv, "d", "bob", reg)

	mustInsert(t, a.Doc(), 0, "from alice: ")
	if err := a.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitSeq(a.Confirmed(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := b.Doc().String(); got != "from alice: shared\n" {
		t.Fatalf("bob sees %q", got)
	}

	mustInsert(t, b.Doc(), b.Doc().Len(), "from bob\n")
	convergeAll(t, h, a, b)
	if got := h.DocString(); got != "from alice: shared\nfrom bob\n" {
		t.Fatalf("host ended with %q", got)
	}
	st := h.Stats()
	if st.OpsApplied != 2 || st.Seq != 2 || st.Broadcasts == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestServeConcurrentEditsConverge(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "hello world"), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)
	b := pipeClient(t, srv, "d", "bob", reg)

	// Both edit before either sees the other's op: the server serializes,
	// both replicas rebase.
	mustInsert(t, a.Doc(), 5, " brave")
	mustDelete(t, b.Doc(), 0, 6)
	convergeAll(t, h, a, b)
}

func TestServeStyledEditsConvergeViaCheckpoint(t *testing.T) {
	reg := testReg(t)
	// The transform-level pathological case: an insert inside a styled run
	// racing a delete that collapses the run's start. Record transforms
	// alone cannot make the runs agree; the host's style checkpoint must.
	doc := newDoc(t, "quv")
	if err := doc.SetStyle(0, 3, "italic"); err != nil {
		t.Fatal(err)
	}
	h := NewHost("d", doc, HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)
	b := pipeClient(t, srv, "d", "bob", reg)

	mustInsert(t, a.Doc(), 2, "ω€b")
	mustDelete(t, b.Doc(), 0, 2)
	convergeAll(t, h, a, b)
	if st := h.Stats(); st.StyleCheckpoints == 0 {
		t.Fatalf("no style checkpoints committed: %+v", st)
	}
}

// TestServeStyleGroupCheckpointsOnUnstyledHost: a group whose style
// records leave the host with no runs still gets a checkpoint. Alice
// styles "ab", types X strictly inside the run (which grows over X on her
// replica) and deletes "b", while Bob's delete of "a" commits first. On
// the host X lands at the run's start and the run collapses; without a
// checkpoint Alice would keep X bold.
func TestServeStyleGroupCheckpointsOnUnstyledHost(t *testing.T) {
	h := NewHost("d", newDoc(t, "ab"), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", testReg(t))
	b := pipeClient(t, srv, "d", "bob", testReg(t))

	// Alice's first edit goes out at once; the rest wait behind it, since
	// she does not pump (and so sees no ack) until Bob has committed.
	mustInsert(t, a.Doc(), 2, "c")
	if err := a.Doc().SetStyle(0, 2, "bold"); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, a.Doc(), 1, "X")
	mustDelete(t, a.Doc(), 2, 1)
	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().Seq < 1 {
		if time.Now().After(deadline) {
			t.Fatal("alice's first edit never committed")
		}
		time.Sleep(time.Millisecond)
	}
	mustDelete(t, b.Doc(), 0, 1)
	if err := b.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	convergeAll(t, h, a, b)
	if got := h.DocString(); got != "Xc" {
		t.Fatalf("host doc %q, want %q", got, "Xc")
	}
}

func TestServeStyledStormConverges(t *testing.T) {
	reg := testReg(t)
	doc := newDoc(t, "the quick brown fox jumps over the lazy dog")
	h := NewHost("d", doc, HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)
	b := pipeClient(t, srv, "d", "bob", reg)
	c := pipeClient(t, srv, "d", "carol", reg)

	// Three writers racing overlapping styles, inserts, and deletes.
	if err := a.Doc().SetStyle(4, 15, "bold"); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, a.Doc(), 10, "XX")
	if err := b.Doc().SetStyle(10, 25, "italic"); err != nil {
		t.Fatal(err)
	}
	mustDelete(t, b.Doc(), 0, 8)
	mustInsert(t, c.Doc(), 20, "yy")
	if err := c.Doc().SetStyle(0, 9, "bigger"); err != nil {
		t.Fatal(err)
	}
	convergeAll(t, h, a, b, c)
}

func TestServeOpReplayResync(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "base\n"), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)
	b := pipeClient(t, srv, "d", "bob", reg)

	mustInsert(t, a.Doc(), 0, "one ")
	if err := a.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitSeq(a.Confirmed(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Drop bob's connection; he keeps editing offline.
	_ = b.conn.Close()
	mustInsert(t, b.Doc(), 0, "offline ")
	if b.PendingCount() == 0 {
		t.Fatal("offline edit should be pending")
	}

	// Alice moves on while bob is away.
	mustInsert(t, a.Doc(), 0, "two ")
	if err := a.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, a.Doc(), 0, "three ")
	if err := a.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	resumeVia(t, srv, b)
	if !b.Live() {
		t.Fatal("bob not live after resume")
	}
	convergeAll(t, h, a, b)
	if b.DroppedPending != 0 {
		t.Fatalf("op replay should preserve pending edits, dropped %d", b.DroppedPending)
	}
	if !strings.Contains(h.DocString(), "offline ") {
		t.Fatalf("offline edit lost: %q", h.DocString())
	}
	st := h.Stats()
	if st.OpResyncs != 1 {
		t.Fatalf("want 1 op resync, got %+v", st)
	}
	if st.SnapResyncs != 2 {
		t.Fatalf("want 2 snapshot attaches, got %+v", st)
	}
}

func TestServeSnapshotFallbackResync(t *testing.T) {
	reg := testReg(t)
	// A two-op history window cannot replay a six-op gap.
	h := NewHost("d", newDoc(t, "base\n"), HostOptions{historyLimit: 2})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)
	b := pipeClient(t, srv, "d", "bob", reg)

	_ = b.conn.Close()
	mustInsert(t, b.Doc(), 0, "doomed ")
	for i := 0; i < 6; i++ {
		mustInsert(t, a.Doc(), 0, "x")
		if err := a.Sync(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	resumeVia(t, srv, b)
	if b.DroppedPending == 0 {
		t.Fatal("snapshot resync should have dropped the unconfirmed edit")
	}
	if b.PendingCount() != 0 {
		t.Fatalf("pending edits survived a snapshot resync: %d", b.PendingCount())
	}
	convergeAll(t, h, a, b)
	if strings.Contains(h.DocString(), "doomed") {
		t.Fatalf("dropped edit reached the host: %q", h.DocString())
	}
	st := h.Stats()
	if st.SnapResyncs != 3 { // two attaches + the fallback
		t.Fatalf("want 3 snapshot resyncs, got %+v", st)
	}
}

func TestServeSlowConsumerKicked(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "base\n"), HostOptions{QueueLen: 4})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)
	b := pipeClient(t, srv, "d", "bob", reg)

	// A raw session that says hello and then never reads another byte: its
	// write loop wedges on the first flush, its queue fills, and the first
	// broadcast that finds the data queue at QueueLen disconnects it. The
	// write loop may absorb a few early frames into its buffered batch
	// before the flush wedges, so drive several times QueueLen commits.
	rawC, rawS := net.Pipe()
	go srv.HandleConn(rawS)
	if _, err := rawC.Write(frames([]byte(encodeHello("d", "sloth")))); err != nil {
		t.Fatal(err)
	}
	defer rawC.Close()
	// The hello is read, but the sloth may not be attached yet; commits
	// made before it is would never reach its queue.
	waitSessions(t, h, 3)

	for i := 0; i < 16; i++ {
		mustInsert(t, a.Doc(), 0, "x")
		if err := a.Sync(5 * time.Second); err != nil {
			t.Fatalf("healthy writer blocked by slow consumer at op %d: %v", i, err)
		}
		if err := b.WaitSeq(a.Confirmed(), 5*time.Second); err != nil {
			t.Fatalf("healthy reader starved at op %d: %v", i, err)
		}
	}
	convergeAll(t, h, a, b)
	st := h.Stats()
	if st.SlowConsumerKicks == 0 {
		t.Fatalf("slow consumer was never kicked: %+v", st)
	}
	if st.Sessions != 2 {
		t.Fatalf("want 2 surviving sessions, got %+v", st)
	}
}

func TestServeIdleTimeoutAndHeartbeat(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "base\n"), HostOptions{IdleTimeout: 250 * time.Millisecond})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)

	mkClient := func(id string, hb time.Duration) *Client {
		cEnd, sEnd := net.Pipe()
		go srv.HandleConn(sEnd)
		c, err := Connect(cEnd, "d", ClientOptions{ClientID: id, Registry: reg, HeartbeatEvery: hb})
		if err != nil {
			t.Fatalf("connect %s: %v", id, err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	beating := mkClient("beating", 80*time.Millisecond)
	silent := mkClient("silent", 0)

	deadline := time.Now().Add(3 * time.Second)
	for h.Stats().Sessions > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("silent session never idled out: %+v", h.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := silent.Pump(); err == nil {
		// The reader may need a moment to surface the closed connection.
		if err := silent.PumpWait(time.Second); err == nil {
			t.Fatal("silent client still healthy after idle kick")
		}
	}

	// The heartbeating client outlived several idle windows and still works.
	mustInsert(t, beating.Doc(), 0, "alive ")
	if err := beating.Sync(5 * time.Second); err != nil {
		t.Fatalf("heartbeating client was kicked: %v", err)
	}
}

// waitSessions blocks until the host has exactly n live sessions.
func waitSessions(t *testing.T, h *Host, n int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for h.Stats().Sessions != n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d sessions: %+v", n, h.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientStatePruned: a disconnected identity's dedup state expires
// after the retention window instead of leaking for the host's lifetime.
func TestClientStatePruned(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "base\n"), HostOptions{clientRetention: 30 * time.Millisecond})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)

	ghost := pipeClient(t, srv, "d", "ghost", reg)
	mustInsert(t, ghost.Doc(), 0, "boo ")
	if err := ghost.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	_ = ghost.Close()
	waitSessions(t, h, 1)
	if st := h.Stats(); st.TrackedClients != 2 {
		t.Fatalf("want alice+ghost tracked right after disconnect, got %+v", st)
	}

	time.Sleep(60 * time.Millisecond)
	b := pipeClient(t, srv, "d", "bob", reg) // attach runs the pruner
	if st := h.Stats(); st.TrackedClients != 2 {
		t.Fatalf("ghost state not pruned: %+v", st)
	}
	mustInsert(t, b.Doc(), 0, "hi ")
	convergeAll(t, h, a, b)
}

// TestClientStateBounded: a peer minting fresh client IDs at connection
// rate cannot grow the identity map past maxClients.
func TestClientStateBounded(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "base\n"), HostOptions{maxClients: 4})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)

	for i := 0; i < 12; i++ {
		cEnd, sEnd := net.Pipe()
		go srv.HandleConn(sEnd)
		c, err := Connect(cEnd, "d", ClientOptions{ClientID: fmt.Sprintf("minted-%d", i), Registry: reg})
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		_ = c.Close()
		waitSessions(t, h, 0)
	}
	// The map may briefly hold maxClients+1 (the pruner runs before the
	// new identity is added), never more.
	if st := h.Stats(); st.TrackedClients > 5 {
		t.Fatalf("identity map unbounded: %+v", st)
	}
}

// TestReconnectAfterPruneGetsSnapshot: a client resuming after its dedup
// state expired is given a snapshot resync (dropping unconfirmed work),
// never an op replay that could re-apply an unrecognizable in-flight
// group; its later edits commit fine mid-count via first-group seeding.
func TestReconnectAfterPruneGetsSnapshot(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "base\n"), HostOptions{clientRetention: 20 * time.Millisecond})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)
	b := pipeClient(t, srv, "d", "bob", reg)

	mustInsert(t, b.Doc(), 0, "one ") // bob is seeded well past clientSeq 0
	if err := b.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	_ = b.conn.Close()
	waitSessions(t, h, 1)
	mustInsert(t, b.Doc(), 0, "limbo ")
	time.Sleep(50 * time.Millisecond) // outlive the retention window

	resumeVia(t, srv, b)
	if b.DroppedPending == 0 {
		t.Fatal("post-prune resume must drop unconfirmed work via snapshot resync")
	}
	if strings.Contains(h.DocString(), "limbo") {
		t.Fatalf("dropped edit reached the host: %q", h.DocString())
	}
	// Fresh identity, non-fresh clientSeq: the next group must still land.
	mustInsert(t, b.Doc(), 0, "back ")
	convergeAll(t, h, a, b)
	if !strings.Contains(h.DocString(), "back ") {
		t.Fatalf("post-prune edit lost: %q", h.DocString())
	}
}

// TestDocByteLimitRejectsCommit: a commit that would push the document's
// encoding past the operator-set MaxDocBytes retention limit is refused
// with an err frame naming the limit, and the document stays joinable.
func TestDocByteLimitRejectsCommit(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "small\n"), HostOptions{MaxDocBytes: 2048})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)

	mustInsert(t, a.Doc(), 0, strings.Repeat("blob ", 1000))
	err := a.Sync(5 * time.Second)
	if err == nil {
		t.Fatal("oversized commit accepted")
	}
	if !strings.Contains(err.Error(), "document full") || !strings.Contains(err.Error(), "2048") {
		t.Fatalf("rejection must name the retention limit: %v", err)
	}
	if h.Stats().Seq != 0 {
		t.Fatalf("oversized commit advanced the log: %+v", h.Stats())
	}
	// The document is still its old self and still serveable.
	b := pipeClient(t, srv, "d", "bob", reg)
	if got := b.Doc().String(); got != "small\n" {
		t.Fatalf("late joiner sees %q", got)
	}
}

// TestCommitBeyondSnapshotFrameAllowed: without a MaxDocBytes limit, a
// document may grow far past the per-frame snapshot bound — the old
// "snapshot limit" no longer rejects commits, because chunked snapr
// frames keep any size joinable.
func TestCommitBeyondSnapshotFrameAllowed(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "small\n"), HostOptions{MaxSnapshotBytes: 2048})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)

	mustInsert(t, a.Doc(), 0, strings.Repeat("blob ", 1000))
	if err := a.Sync(5 * time.Second); err != nil {
		t.Fatalf("commit past the per-frame bound rejected: %v", err)
	}
	b := pipeClient(t, srv, "d", "bob", reg)
	convergeAll(t, h, a, b)
}

// TestChunkedAttachServesLargeDocument: a document bigger than the
// per-frame snapshot bound attaches by streaming snapr range frames, and
// the replica converges byte-identical. The second joiner rides the
// chunked snapshot cache.
func TestChunkedAttachServesLargeDocument(t *testing.T) {
	reg := testReg(t)
	big := newDoc(t, strings.Repeat("wide载\n", 2000))
	h := NewHost("d", big, HostOptions{MaxSnapshotBytes: 2048})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)

	a := pipeClient(t, srv, "d", "alice", reg)
	if got, want := a.Doc().Len(), big.Len(); got != want {
		t.Fatalf("chunked attach delivered %d runes, want %d", got, want)
	}
	chunks := h.Stats().SnapChunks
	if chunks < 2 {
		t.Fatalf("large attach used %d snapr chunks, want >= 2", chunks)
	}
	// Second joiner: served from the cached chunk frames (no re-encode),
	// still counted as chunk deliveries.
	b := pipeClient(t, srv, "d", "bob", reg)
	if h.Stats().SnapChunks <= chunks {
		t.Fatal("cached chunked attach did not count snapr frames")
	}
	mustInsert(t, a.Doc(), 0, "edited after chunked attach: ")
	convergeAll(t, h, a, b)
}

func TestServeRoutingAndRejects(t *testing.T) {
	reg := testReg(t)
	srv := NewServer(HostOptions{})
	srv.AddHost(NewHost("known", newDoc(t, ""), HostOptions{}))

	// Unknown document: rejected with an err frame.
	cEnd, sEnd := net.Pipe()
	go srv.HandleConn(sEnd)
	if _, err := Connect(cEnd, "nope", ClientOptions{ClientID: "c", Registry: reg}); err == nil {
		t.Fatal("unknown document accepted")
	} else if !strings.Contains(err.Error(), "no document") {
		t.Fatalf("wrong rejection: %v", err)
	}

	// A host added later is routable at once.
	srv.AddHost(NewHost("fresh", text.New(), HostOptions{}))
	c := pipeClient(t, srv, "fresh", "c", reg)
	mustInsert(t, c.Doc(), 0, "hi")
	if err := c.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(srv.Hosts()) != 2 {
		t.Fatalf("want 2 hosts, have %d", len(srv.Hosts()))
	}

	// The host's own origin id is not attachable.
	cEnd2, sEnd2 := net.Pipe()
	go srv.HandleConn(sEnd2)
	if _, err := Connect(cEnd2, "known", ClientOptions{ClientID: hostOrigin, Registry: reg}); err == nil {
		t.Fatal("reserved client id accepted")
	} else if !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

// TestServePipelinedHello: a client that writes its hello and its first
// frame in one write gets both served. The session reads through the
// same buffered reader the hello came through, so the ping that arrived
// with it is answered rather than dropped.
func TestServePipelinedHello(t *testing.T) {
	srv := NewServer(HostOptions{})
	srv.AddHost(NewHost("d", newDoc(t, "base\n"), HostOptions{}))
	cEnd, sEnd := net.Pipe()
	go srv.HandleConn(sEnd)
	defer cEnd.Close()
	_ = cEnd.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := cEnd.Write(frames([]byte(encodeHello("d", "eager")), []byte("ping early"))); err != nil {
		t.Fatal(err)
	}
	fr := readerOf(cEnd)
	for {
		f, err := fr.next()
		if err != nil {
			t.Fatalf("no pong for the pipelined ping: %v", err)
		}
		if f == "pong early" {
			return
		}
	}
}

// TestServeSupersededSession: a client back on a new connection before
// the host noticed its old one die supersedes the old session. The old
// one is told why and disconnected, and a group it read before that is
// dropped, not committed behind the resumed client's back (the client
// re-sends it).
func TestServeSupersededSession(t *testing.T) {
	h := NewHost("d", newDoc(t, "base\n"), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	attach := func() *frameReader {
		cEnd, sEnd := net.Pipe()
		go srv.HandleConn(sEnd)
		t.Cleanup(func() { _ = cEnd.Close() })
		_ = cEnd.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := cEnd.Write(frames([]byte(encodeHello("d", "w")))); err != nil {
			t.Fatal(err)
		}
		fr := readerOf(cEnd)
		for i := 0; i < 2; i++ { // catch-up: snapr, live
			if _, err := fr.next(); err != nil {
				t.Fatal(err)
			}
		}
		return fr
	}
	oldReader := attach()
	var old *session
	h.mu.Lock()
	for s := range h.sessions {
		old = s
	}
	h.mu.Unlock()
	attach()
	if f, err := oldReader.next(); err != nil || !strings.Contains(f, "superseded") {
		t.Fatalf("superseded session got %q, %v; want the err frame saying why", f, err)
	}
	if _, err := oldReader.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("superseded session not closed: %v", err)
	}
	if st := h.Stats(); st.Sessions != 1 {
		t.Fatalf("want 1 live session, have %+v", st)
	}
	h.commitGroup(old, opGroupMsg{clientSeq: 1, payloads: []string{"i 0 stale "}})
	if st := h.Stats(); st.Seq != 0 || h.DocString() != "base\n" {
		t.Fatalf("superseded session committed: seq %d, doc %q", st.Seq, h.DocString())
	}
}

// TestDrainDropsGroupsAfterBye: once a drain has said bye, the host
// commits nothing more, so no ack or op queues up behind the bye where a
// client healing on it would never read it. The client re-sends the
// group after it resumes.
func TestDrainDropsGroupsAfterBye(t *testing.T) {
	h := NewHost("d", newDoc(t, "base\n"), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	pipeClient(t, srv, "d", "late", testReg(t))
	h.mu.Lock()
	var s *session
	for live := range h.sessions {
		s = live
	}
	h.draining = true
	h.mu.Unlock()
	h.commitGroup(s, opGroupMsg{clientSeq: 1, payloads: []string{"i 0 late "}})
	if st := h.Stats(); st.Seq != 0 || h.DocString() != "base\n" {
		t.Fatalf("group committed after the bye: seq %d, doc %q", st.Seq, h.DocString())
	}
}

func TestServeOverTCP(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "tcp\n"), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()

	dial := func(id string) *Client {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c, err := Connect(conn, "d", ClientOptions{ClientID: id, Registry: reg})
		if err != nil {
			t.Fatalf("connect %s: %v", id, err)
		}
		return c
	}
	a := dial("alice")
	b := dial("bob")
	mustInsert(t, a.Doc(), 0, "over ")
	convergeAll(t, h, a, b)
	_ = a.Close()
	_ = b.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}
