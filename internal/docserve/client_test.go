package docserve

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"atk/internal/datastream"
)

// snapLive is the catch-up a scripted server sends: doc as one snapshot
// frame at (epoch, seq), then live.
func snapLive(epoch, seq uint64, doc []byte) []byte {
	return frames(appendSnapRange(nil, epoch, seq, len(doc), 0, doc), appendLive(nil, seq))
}

// TestClientRebaseDeterministic drives a client against a hand-written
// server script so every transform step is pinned down exactly: the
// client's speculative insert at 0 loses the position tie to the
// server-earlier foreign insert and shifts right.
func TestClientRebaseDeterministic(t *testing.T) {
	reg := testReg(t)
	snap := encodeDoc(t, newDoc(t, "hello"))

	cEnd, sEnd := net.Pipe()
	errc := make(chan error, 1)
	go func() {
		defer sEnd.Close() // script done; pipe writes are synchronous, all frames delivered
		errc <- func() error {
			fr := readerOf(sEnd)
			f, err := fr.next()
			if err != nil {
				return err
			}
			hello, err := parseHello(f)
			if err != nil {
				return fmt.Errorf("hello %q: %w", f, err)
			}
			if hello.doc != "doc" || hello.clientID != "me" || hello.resume {
				return fmt.Errorf("unexpected hello %+v", hello)
			}
			if _, err := sEnd.Write(snapLive(5, 0, snap)); err != nil {
				return err
			}
			f, err = fr.next()
			if err != nil {
				return err
			}
			g, err := parseOpGroup(f)
			if err != nil {
				return fmt.Errorf("op group %q: %w", f, err)
			}
			if g.clientSeq != 1 || g.baseSeq != 0 || len(g.payloads) != 1 || g.payloads[0] != "i 0 abc" {
				return fmt.Errorf("unexpected op group %+v", g)
			}
			// Serialize a foreign insert at the same position FIRST, then
			// commit the client's group after it.
			_, err = sEnd.Write(frames(appendCommitted(nil, 1, "other", 1, "i 0 ZZ"), appendAck(nil, 1, 1, 2)))
			return err
		}()
	}()

	c, err := Connect(cEnd, "doc", ClientOptions{ClientID: "me", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Epoch() != 5 || !c.Live() {
		t.Fatalf("epoch %d live %v", c.Epoch(), c.Live())
	}
	mustInsert(t, c.Doc(), 0, "abc")
	if err := c.WaitSeq(2, 5*time.Second); err != nil {
		// The script's error explains most client-side failures (it closes
		// the pipe on its way out); don't let the symptom mask the cause.
		t.Fatalf("client: %v (script: %v)", err, <-errc)
	}
	if err := <-errc; err != nil {
		t.Fatalf("script: %v", err)
	}
	if got := c.Doc().String(); got != "ZZabchello" {
		t.Fatalf("visible doc %q, want %q", got, "ZZabchello")
	}
	if c.Confirmed() != 2 || c.PendingCount() != 0 {
		t.Fatalf("confirmed %d pending %d", c.Confirmed(), c.PendingCount())
	}
}

// TestClientAckMismatchIsFatal pins the strict ack check: a server that
// claims a different record count than the client's rebased group is a
// protocol violation, not something to paper over.
func TestClientAckMismatchIsFatal(t *testing.T) {
	reg := testReg(t)
	snap := encodeDoc(t, newDoc(t, "hello"))

	cEnd, sEnd := net.Pipe()
	go func() {
		defer sEnd.Close()
		fr := readerOf(sEnd)
		if _, err := fr.next(); err != nil {
			return
		}
		_, _ = sEnd.Write(snapLive(1, 0, snap))
		if _, err := fr.next(); err != nil {
			return
		}
		_, _ = sEnd.Write(frames(appendAck(nil, 1, 5, 9))) // nonsense
	}()

	c, err := Connect(cEnd, "doc", ClientOptions{ClientID: "me", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustInsert(t, c.Doc(), 0, "x")
	err = c.WaitSeq(9, 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "ack mismatch") {
		t.Fatalf("want ack mismatch error, got %v", err)
	}
	if c.Err() == nil {
		t.Fatal("fatal error not latched")
	}
}

// TestClientSeqGapIsFatal: a committed op that skips a seq means lost
// state; the client must refuse rather than apply it at the wrong place.
func TestClientSeqGapIsFatal(t *testing.T) {
	reg := testReg(t)
	snap := encodeDoc(t, newDoc(t, "hello"))

	cEnd, sEnd := net.Pipe()
	go func() {
		defer sEnd.Close()
		if _, err := readerOf(sEnd).next(); err != nil {
			return
		}
		_, _ = sEnd.Write(snapLive(1, 0, snap))
		_, _ = sEnd.Write(frames(appendCommitted(nil, 7, "other", 1, "i 0 ZZ")))
	}()

	c, err := Connect(cEnd, "doc", ClientOptions{ClientID: "me", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.WaitSeq(7, 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("want sequence gap error, got %v", err)
	}
}

// TestClientRejectsHostileSnapshotSize: a snapr header's total is the
// peer's claim. A server announcing an absurd size must not make the
// client allocate it; the run that never completes is a protocol error.
func TestClientRejectsHostileSnapshotSize(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	go func() {
		defer sEnd.Close()
		if _, err := readerOf(sEnd).next(); err != nil {
			return
		}
		_, _ = sEnd.Write(frames([]byte("snapr 1 0 4611686018427387904 0 x"), appendLive(nil, 0)))
	}()
	_, err := Connect(cEnd, "doc", ClientOptions{ClientID: "me", Registry: testReg(t)})
	if !errors.Is(err, errBadFrame) {
		t.Fatalf("want a protocol error, got %v", err)
	}
}

// TestSnapRangeBufferGrowsGeometrically: the snapshot buffer is reserved
// ahead of the bytes that arrive, from a total the peer claims, so its
// growth must stay geometric in the bytes actually sent. Many small
// frames under a total past MaxFrameBytes, an honest run and a hostile
// one (a byte per frame under a huge total), must not reallocate it per
// frame. The frames stop short of the total, so no snapshot is decoded.
func TestSnapRangeBufferGrowsGeometrically(t *testing.T) {
	for _, tc := range []struct {
		name          string
		total, chunk  int
		frames        int
		budget        uint64 // bytes the frames may allocate in all
		wantBufferCap int
	}{
		// MaxFrameBytes at the first frame, then the whole total.
		{"honest", MaxFrameBytes * 3 / 2, 8 << 10, 3*MaxFrameBytes/2/(8<<10) - 1, 3 * MaxFrameBytes, MaxFrameBytes * 3 / 2},
		// MaxFrameBytes at the first frame, then twice that; nothing more
		// until MaxFrameBytes have arrived.
		{"hostile", 1 << 40, 1, 4096, 3*MaxFrameBytes + 1<<20, 2 * MaxFrameBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chunk := bytes.Repeat([]byte{'a'}, tc.chunk)
			var wire, line []byte
			for i := range tc.frames {
				line = appendSnapRange(line[:0], 1, 1, tc.total, i*tc.chunk, chunk)
				wire = datastream.AppendEscapedBytes(wire, line)
			}
			c := &Client{fr: newFrameReader(bytes.NewReader(wire))}
			var before, now runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range tc.frames {
				if err := c.catchUpFrame(); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				runtime.ReadMemStats(&now)
				if got := now.TotalAlloc - before.TotalAlloc; got > tc.budget {
					t.Fatalf("%d frames of %d bytes under a total of %d allocated %d bytes, want at most %d",
						i+1, tc.chunk, tc.total, got, tc.budget)
				}
			}
			if got := cap(c.snapAcc.buf); got != tc.wantBufferCap {
				t.Errorf("snapshot buffer holds %d bytes, want %d", got, tc.wantBufferCap)
			}
			t.Logf("allocated %d bytes", now.TotalAlloc-before.TotalAlloc)
		})
	}
}

// TestConnectTimesOutOnMuteServer: a server that accepts the hello but
// never streams its catch-up must fail Connect within the handshake deadline,
// not hang forever (the default options used to carry no deadline at all).
func TestConnectTimesOutOnMuteServer(t *testing.T) {
	reg := testReg(t)
	cEnd, sEnd := net.Pipe()
	defer sEnd.Close()
	go func() {
		_, _ = readerOf(sEnd).next() // swallow the hello, then go mute
	}()
	start := time.Now()
	_, err := Connect(cEnd, "doc", ClientOptions{
		ClientID: "me", Registry: reg, handshakeTimeout: 100 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("connect to a mute server succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("connect took %v to fail; handshake deadline not applied", d)
	}
}

func TestConnectValidation(t *testing.T) {
	reg := testReg(t)
	mk := func() net.Conn { a, _ := net.Pipe(); return a }
	if _, err := Connect(mk(), "doc", ClientOptions{Registry: reg}); err == nil {
		t.Fatal("missing ClientID accepted")
	}
	if _, err := Connect(mk(), "doc", ClientOptions{ClientID: "bad id", Registry: reg}); err == nil {
		t.Fatal("invalid ClientID accepted")
	}
	if _, err := Connect(mk(), "bad doc", ClientOptions{ClientID: "c", Registry: reg}); err == nil {
		t.Fatal("invalid doc name accepted")
	}
	if _, err := Connect(mk(), "doc", ClientOptions{ClientID: "c"}); err == nil {
		t.Fatal("missing registry accepted")
	}
}

// TestClientUndoReplicates: undo is a local affair but its effect is an
// ordinary edit record, so it must travel like any other op.
func TestClientUndoReplicates(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "stable "), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)
	b := pipeClient(t, srv, "d", "bob", reg)

	mustInsert(t, a.Doc(), 7, "oops")
	if err := a.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !a.Doc().Undo() {
		t.Fatal("nothing to undo")
	}
	convergeAll(t, h, a, b)
	if got := h.DocString(); got != "stable " {
		t.Fatalf("undo did not replicate: %q", got)
	}
}
