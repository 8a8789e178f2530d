package docserve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atk/internal/class"
	"atk/internal/text"
)

// TestServeControlFrameHeadroom pins the reserved queue headroom for
// control frames: with the data portion of the queue completely full, a
// pong still fits (a session must not be evicted for answering a
// heartbeat) and the overflow policy still applies to data.
func TestServeControlFrameHeadroom(t *testing.T) {
	h := NewHost("d", newDoc(t, "base\n"), HostOptions{QueueLen: 4})
	_, sEnd := net.Pipe()
	sess, err := h.attach(sEnd, helloMsg{clientID: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	// No serve(): nothing drains the queue, so its depth is exact.
	h.mu.Lock()
	for i := 0; i < h.opts.QueueLen; i++ {
		fb := getFrame()
		fb.appendLine("op filler")
		h.enqueueDataLocked(sess, fb, time.Now())
		fb.release()
	}
	if len(sess.out) != h.opts.QueueLen {
		h.mu.Unlock()
		t.Fatalf("queue depth %d after filling, want %d", len(sess.out), h.opts.QueueLen)
	}
	if _, alive := h.sessions[sess]; !alive {
		h.mu.Unlock()
		t.Fatal("session killed while filling to QueueLen")
	}
	// Control frame rides the headroom above the full data queue.
	pong := getFrame()
	pong.appendLine("pong hb1")
	if !h.enqueueControlLocked(sess, pong, time.Now()) {
		h.mu.Unlock()
		t.Fatal("pong rejected with data queue full — control headroom missing")
	}
	pong.release()
	if _, alive := h.sessions[sess]; !alive {
		h.mu.Unlock()
		t.Fatal("session killed by a control frame")
	}
	if len(sess.out) != h.opts.QueueLen+1 {
		h.mu.Unlock()
		t.Fatalf("queue depth %d after pong, want %d", len(sess.out), h.opts.QueueLen+1)
	}
	// One more data frame is the slow-consumer disease, headroom or not.
	fb := getFrame()
	fb.appendLine("op overflow")
	h.enqueueDataLocked(sess, fb, time.Now())
	fb.release()
	if _, alive := h.sessions[sess]; alive {
		h.mu.Unlock()
		t.Fatal("data overflow past QueueLen did not kill the session")
	}
	kicks := h.slowKicks
	h.mu.Unlock()
	if kicks != 1 {
		t.Fatalf("slow kicks = %d, want 1", kicks)
	}
	sess.releaseQueued()
}

// TestServeErrFrameDeliveredOnKill pins that a protocol kill's err frame
// reaches the wire: the write loop drains queued frames — the explanation
// included — before the connection closes, instead of racing the close.
func TestServeErrFrameDeliveredOnKill(t *testing.T) {
	h := NewHost("d", newDoc(t, "base\n"), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)

	cEnd, sEnd := net.Pipe()
	go srv.HandleConn(sEnd)
	defer cEnd.Close()
	fr := readerOf(cEnd)
	if _, err := cEnd.Write(frames([]byte(encodeHello("d", "rude")))); err != nil {
		t.Fatal(err)
	}
	// Catch-up: snapr, live.
	for i := 0; i < 2; i++ {
		if _, err := fr.next(); err != nil {
			t.Fatal(err)
		}
	}
	// A malformed frame is a protocol violation; the session dies, but the
	// err frame explaining why must arrive before EOF.
	if _, err := cEnd.Write(frames([]byte("wat is this"))); err != nil {
		t.Fatal(err)
	}
	_ = cEnd.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		f, err := fr.next()
		if err != nil {
			t.Fatalf("connection died before any err frame: %v", err)
		}
		if verbOf(f) == "err" {
			if !strings.Contains(f, "unknown frame") {
				t.Fatalf("err frame %q does not explain the kill", f)
			}
			break
		}
	}
	// After the drain the server closes its end.
	if _, err := fr.next(); err == nil {
		t.Fatal("connection still open after kill")
	}
}

// TestServeCommitsLiveDuringAttach pins the attach rewrite: the host lock
// is NOT held while a joining session's snapshot is encoded, so existing
// sessions keep committing, and the joiner still converges (the ops it
// missed during the encode reach it through its queue).
func TestServeCommitsLiveDuringAttach(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, strings.Repeat("wide load ", 200)), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)

	var armed atomic.Bool
	gateRan := make(chan error, 1)
	var early *Client
	// The gate runs on the attaching connection's goroutine, inside the
	// window where attach has released the host lock to encode. A commit
	// from the established client must complete *now*; if attach still
	// held the lock, this Sync would time out.
	h.attachGate = func() {
		if !armed.CompareAndSwap(true, false) {
			return
		}
		if err := early.Doc().Insert(0, "live-during-attach "); err != nil {
			gateRan <- err
			return
		}
		gateRan <- early.Sync(3 * time.Second)
	}

	early = pipeClient(t, srv, "d", "early", reg)
	mustInsert(t, early.Doc(), 0, "warm ")
	if err := early.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The commit above invalidated any cached snapshot, so the next attach
	// must take the encode path — where the gate fires.
	armed.Store(true)
	late := pipeClient(t, srv, "d", "late", reg)
	select {
	case err := <-gateRan:
		if err != nil {
			t.Fatalf("commit during attach: %v", err)
		}
	default:
		t.Fatal("attach gate never ran: attach skipped the encode path")
	}
	convergeAll(t, h, early, late)
	if !strings.Contains(late.Doc().String(), "live-during-attach") {
		t.Fatal("joiner missed the op committed during its attach")
	}
}

// TestServeCommitsLiveDuringChunkedAttach pins the chunked-attach path:
// a document far past the per-frame snapshot bound streams to a joiner
// as snapr range frames, commits from an established session land while
// the joiner's snapshot is being encoded and framed, and the joiner
// still converges byte-identical.
func TestServeCommitsLiveDuringChunkedAttach(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, strings.Repeat("chunked cargo\n", 3000)), HostOptions{MaxSnapshotBytes: 4096})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)

	var armed atomic.Bool
	gateRan := make(chan error, 1)
	var early *Client
	h.attachGate = func() {
		if !armed.CompareAndSwap(true, false) {
			return
		}
		if err := early.Doc().Insert(0, "live-during-attach "); err != nil {
			gateRan <- err
			return
		}
		gateRan <- early.Sync(3 * time.Second)
	}

	early = pipeClient(t, srv, "d", "early", reg)
	mustInsert(t, early.Doc(), 0, "warm ")
	if err := early.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	late := pipeClient(t, srv, "d", "late", reg)
	select {
	case err := <-gateRan:
		if err != nil {
			t.Fatalf("commit during chunked attach: %v", err)
		}
	default:
		t.Fatal("attach gate never ran: attach skipped the encode path")
	}
	if st := h.Stats(); st.SnapChunks < 2 {
		t.Fatalf("chunked attach staged %d snapr chunks, want >= 2", st.SnapChunks)
	}
	convergeAll(t, h, early, late)
	if !strings.Contains(late.Doc().String(), "live-during-attach") {
		t.Fatal("joiner missed the op committed during its chunked attach")
	}
}

// TestServeCoalescedFanout pins commit-group coalescing: a multi-record
// group fans out as fewer wire buffers than op deliveries.
func TestServeCoalescedFanout(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, ""), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	w := pipeClient(t, srv, "d", "writer", reg)
	r := pipeClient(t, srv, "d", "reader", reg)

	// Five edits without pumping: the first promotes alone; the rest
	// buffer behind it and ship as one four-record group.
	for i := 0; i < 5; i++ {
		mustInsert(t, w.Doc(), 0, "x")
	}
	if err := w.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	convergeAll(t, h, w, r)
	st := h.Stats()
	if st.Broadcasts != 5 {
		t.Fatalf("broadcast deliveries = %d, want 5 (one per op for one reader)", st.Broadcasts)
	}
	if st.FanoutFrames >= st.Broadcasts {
		t.Fatalf("fan-out frames = %d not coalesced below %d deliveries", st.FanoutFrames, st.Broadcasts)
	}
}

// TestSoakMultiDocument is the sharding acceptance test: several documents
// served by one server, each hammered by its own clients concurrently. At
// quiescence every replica must be byte-identical to its own host and the
// documents must not have bled into each other.
func TestSoakMultiDocument(t *testing.T) {
	const (
		docs       = 4
		clientsPer = 3
		opsEach    = 25
	)
	srv := NewServer(HostOptions{})
	hosts := make([]*Host, docs)
	for d := 0; d < docs; d++ {
		hosts[d] = NewHost(fmt.Sprintf("doc%d", d),
			newDoc(t, fmt.Sprintf("seed-%d\n", d)), HostOptions{QueueLen: 4096})
		srv.AddHost(hosts[d])
	}

	seed := testSeed(t, 100)
	type slot struct {
		c   *Client
		err error
	}
	slots := make([]slot, docs*clientsPer)
	var wg sync.WaitGroup
	for d := 0; d < docs; d++ {
		for k := 0; k < clientsPer; k++ {
			wg.Add(1)
			go func(d, k int) {
				defer wg.Done()
				s := &slots[d*clientsPer+k]
				s.err = func() error {
					reg := class.NewRegistry()
					if err := text.Register(reg); err != nil {
						return err
					}
					rng := rand.New(rand.NewSource(seed + int64(100*d+k)))
					cEnd, sEnd := net.Pipe()
					go srv.HandleConn(sEnd)
					c, err := Connect(cEnd, fmt.Sprintf("doc%d", d),
						ClientOptions{ClientID: fmt.Sprintf("c%d-%d", d, k), Registry: reg})
					if err != nil {
						return fmt.Errorf("connect: %w", err)
					}
					s.c = c
					for op := 0; op < opsEach; op++ {
						if err := randomEdit(c, rng); err != nil {
							return fmt.Errorf("op %d: %w", op, err)
						}
						if err := c.Pump(); err != nil {
							return fmt.Errorf("pump after op %d: %w", op, err)
						}
						// Occasionally yield so remote ops interleave.
						if rng.Intn(4) == 0 {
							_ = c.PumpWait(time.Millisecond)
						}
					}
					return c.Sync(10 * time.Second)
				}()
			}(d, k)
		}
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, s := range slots {
			if s.c != nil {
				_ = s.c.Close()
			}
		}
	})
	for i, s := range slots {
		if s.err != nil {
			t.Fatalf("client %d: %v", i, s.err)
		}
	}

	// The soak's random deletes may have eaten any content, seeds included,
	// so cross-shard interference is checked with post-quiescence markers:
	// each document's first client commits a doc-tagged insert, and every
	// document must end up containing exactly its own tag. The writer first
	// catches up to its host: typed on a stale replica, the marker could
	// land inside a range a concurrent delete removed, and the transform
	// rule that such an insert is swallowed would then remove it.
	for d := 0; d < docs; d++ {
		c := slots[d*clientsPer].c
		if err := c.WaitSeq(hosts[d].Stats().Seq, 10*time.Second); err != nil {
			t.Fatalf("doc %d marker writer catching up: %v", d, err)
		}
		if err := c.Doc().Insert(0, fmt.Sprintf("marker-doc%d ", d)); err != nil {
			t.Fatal(err)
		}
		if err := c.Sync(10 * time.Second); err != nil {
			t.Fatalf("doc %d marker sync: %v", d, err)
		}
	}
	for d := 0; d < docs; d++ {
		hostBytes, finalSeq, err := hosts[d].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < clientsPer; k++ {
			c := slots[d*clientsPer+k].c
			if err := c.WaitSeq(finalSeq, 10*time.Second); err != nil {
				t.Fatalf("doc %d client %d catching up: %v", d, k, err)
			}
			if got := encodeDoc(t, c.Doc()); !bytes.Equal(got, hostBytes) {
				t.Fatalf("doc %d client %d diverged from its host", d, k)
			}
		}
		// No cross-document interference: exactly this document's marker,
		// nobody else's.
		txt := hosts[d].DocString()
		for od := 0; od < docs; od++ {
			has := strings.Contains(txt, fmt.Sprintf("marker-doc%d ", od))
			if od == d && !has {
				t.Fatalf("doc %d lost its own marker", d)
			}
			if od != d && has {
				t.Fatalf("doc %d contains doc %d's marker — shard bleed", d, od)
			}
		}
		st := hosts[d].Stats()
		if st.OpsApplied == 0 || st.ProtocolErrors != 0 || st.SlowConsumerKicks != 0 {
			t.Fatalf("doc %d unhealthy after soak: %+v", d, st)
		}
	}
}

// BenchmarkDocServeMultiDoc measures the sharded serving path: 8 documents
// on one server, each with its own writer and 4 reader replicas applying
// every committed op. Reported commits/s, deliveries/s and p99 lag are
// across all documents; b.N counts commits per document.
func BenchmarkDocServeMultiDoc(b *testing.B) {
	fanoutBench(b, 8, 4, textReg, appendChar)
}
