package docserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"atk/internal/datastream"
	"atk/internal/persist"
)

// session is one attached client connection. Its lifecycle:
//
//	reader goroutine (serveSession)  conn -> frames -> host.commitGroup
//	writer goroutine (writeLoop)     catchup frames, then out queue -> conn
//
// The out queue is a bounded channel of encoded-once wire buffers (see
// frame.go). Broadcasts enqueue without blocking; a data frame that finds
// the queue at QueueLen means the consumer is slower than the op stream,
// and the session is disconnected on the spot (backpressure by eviction —
// one stuck reader must never stall fan-out to the healthy ones or grow
// an unbounded buffer). A frame that takes longer than WriteTimeout to
// write is the same disease at the kernel-buffer level and gets the same
// cure. Control frames (pong, err) ride a reserved headroom above
// QueueLen, so a merely-full data queue can neither evict a session for
// answering a heartbeat nor silently drop the err frame that explains a
// kill.
type session struct {
	h        *Host
	conn     net.Conn
	id       uint64
	clientID string

	out  chan outFrame
	dead chan struct{}
	once sync.Once

	// catchup is staged by attach (snapshot or op replay) and written by
	// writeLoop before anything from the queue — the frames were encoded
	// outside the host lock, while commits kept flowing into the queue.
	catchup []*frameBuf
}

type outFrame struct {
	fb *frameBuf
	t  time.Time
}

// controlHeadroom is the queue capacity reserved above QueueLen for
// control frames (pong, err).
const controlHeadroom = 8

// attach registers a new session and stages its catch-up. Registration,
// the catch-up decision, and the live marker's seq are all captured under
// one lock hold, so no committed op can slip between the catch-up point
// and the live stream. The expensive part — escape-encoding a whole
// document snapshot — happens with the lock released (commits stay live
// during a large attach); the staged frames are written to the wire
// before anything the queue collected meanwhile. A document with
// embedded components is the exception: it is encoded under the lock.
func (h *Host) attach(conn net.Conn, hello helloMsg) (*session, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.draining {
		return nil, fmt.Errorf("document %s is shutting down", h.name)
	}
	if hello.clientID == hostOrigin {
		return nil, fmt.Errorf("client id %q is reserved", hostOrigin)
	}
	if cs := h.clients[hello.clientID]; cs != nil && cs.sessions > 0 {
		// The client is back on a new connection before the host noticed
		// the old one die. The old session must not commit or receive
		// anything more: a group it still had in hand would otherwise be
		// committed behind the resumed client's back. (A second client
		// misconfigured with the same ID is told why it was dropped.)
		for old := range h.sessions {
			if old.clientID == hello.clientID {
				h.dismissLocked(old, "superseded by a new session of the same client")
			}
		}
	}
	if len(h.sessions) >= maxSessions {
		return nil, fmt.Errorf("document %s is full (%d sessions)", h.name, len(h.sessions))
	}
	h.pruneClientsLocked(time.Now())
	h.nextSID++
	s := &session{
		h:        h,
		conn:     conn,
		id:       h.nextSID,
		clientID: hello.clientID,
		out:      make(chan outFrame, h.opts.QueueLen+controlHeadroom),
		dead:     make(chan struct{}),
	}
	cs := h.clients[s.clientID]
	known := cs != nil
	if !known {
		cs = &clientState{acks: map[uint64]ackRange{}}
		h.clients[s.clientID] = cs
	}
	h.sessions[s] = struct{}{}
	cs.sessions++

	// Catch-up: op replay when the client's resume point is inside the
	// history window (and small enough to fit the queue), else a full
	// snapshot. Both end with `live`. A resume from an identity whose
	// dedup state was pruned gets the snapshot path regardless: op replay
	// would invite the client to re-send an in-flight group we may have
	// already committed and can no longer recognize, while a snapshot
	// resync makes it drop unconfirmed work instead of duplicating it.
	if known && hello.resume && hello.epoch == h.epoch && hello.since <= h.seq &&
		h.opsSinceLocked(hello.since) >= 0 &&
		h.opsSinceLocked(hello.since) <= h.opts.QueueLen/2 {
		fb := getFrame() // one coalesced buffer: every replayed op, then live
		for _, op := range h.hist {
			if op.seq > hello.since {
				h.frameLineLocked(fb, appendCommitted(h.lineScratch(), op.seq, op.clientID, op.clientSeq, op.wire))
			}
		}
		h.frameLineLocked(fb, appendLive(h.lineScratch(), h.seq))
		s.catchup = append(s.catchup, fb)
		h.opResyncs++
		return s, nil
	}

	h.snapResyncs++
	if len(h.snapFrames) > 0 && h.snapSeq == h.seq {
		// The seq-keyed snapshot cache holds the current state already
		// encoded: attach costs no encode at all.
		for _, fb := range h.snapFrames {
			fb.retain()
			s.catchup = append(s.catchup, fb)
		}
		if n := len(h.snapFrames); n > 1 {
			h.snapChunks += uint64(n)
		}
		live := getFrame()
		h.frameLineLocked(live, appendLive(h.lineScratch(), h.seq))
		s.catchup = append(s.catchup, live)
		return s, nil
	}

	// Cache miss: capture the document state under the lock — its bytes,
	// style runs and definitions, one copy and far cheaper than the
	// encode — then release it while encoding and framing so concurrent
	// commits are not stalled. They enqueue into s.out in commit order
	// with seq > seq0, exactly the ops the seq0 snapshot needs appended.
	// Embedded components are live objects that commits mutate in place
	// (a cell set, a row insert), which a capture would share rather
	// than copy, so a document with any is encoded under the lock: its
	// join stalls commits for one encode. A document bigger than the
	// per-frame bound streams to the client as a run of snapr range
	// frames, so document size does not cap joinability.
	seq0, epoch := h.seq, h.epoch
	var b []byte
	var encErr error
	if c, ok := h.doc.Capture(); ok {
		h.mu.Unlock()
		b, encErr = persist.EncodeCapture(c)
	} else {
		b, encErr = persist.EncodeDocument(h.doc)
		h.mu.Unlock()
	}
	if h.attachGate != nil {
		h.attachGate()
	}
	var frames []*frameBuf
	if encErr == nil {
		frames = buildSnapFrames(epoch, seq0, b, h.opts.MaxSnapshotBytes)
	}
	h.mu.Lock()
	if _, live := h.sessions[s]; !live {
		// Evicted while encoding (queue overflow under a commit storm).
		releaseFrames(frames)
		s.releaseQueued()
		return nil, fmt.Errorf("document %s: session disconnected during attach", h.name)
	}
	if encErr != nil {
		h.discardSessionLocked(s)
		return nil, encErr
	}
	s.catchup = append(s.catchup, frames...)
	if n := len(frames); n > 1 {
		h.snapChunks += uint64(n)
	}
	live := getFrame()
	h.frameLineLocked(live, appendLive(h.lineScratch(), seq0))
	s.catchup = append(s.catchup, live)
	if h.seq == seq0 {
		// Still current: publish to the snapshot cache.
		releaseFrames(h.snapFrames)
		for _, fb := range frames {
			fb.retain()
		}
		h.snapFrames, h.snapSeq = frames, seq0
	}
	return s, nil
}

// discardSessionLocked unwinds a registration that will never serve:
// registry bookkeeping plus every reference the session still holds.
func (h *Host) discardSessionLocked(s *session) {
	delete(h.sessions, s)
	if cs := h.clients[s.clientID]; cs != nil {
		if cs.sessions--; cs.sessions == 0 {
			cs.idleSince = time.Now()
		}
	}
	s.releaseQueued()
}

// releaseQueued drops the references held by staged catch-up frames and
// anything commits queued while attach was still deciding.
func (s *session) releaseQueued() {
	for {
		select {
		case f := <-s.out:
			f.fb.release()
		default:
			for _, fb := range s.catchup {
				fb.release()
			}
			s.catchup = nil
			return
		}
	}
}

// opsSinceLocked returns how many history ops follow since, or -1 when the
// window no longer reaches back that far.
func (h *Host) opsSinceLocked(since uint64) int {
	if since == h.seq {
		return 0
	}
	if len(h.hist) == 0 || h.hist[0].seq > since+1 {
		return -1
	}
	return int(h.seq - since)
}

// serve runs the session to completion: writer goroutine plus the reader
// loop in the calling goroutine. fr is the reader the hello came through,
// so frames the client sent right behind the hello are already buffered
// in it. The caller owns conn no more.
func (s *session) serve(fr *datastream.LineReader) {
	go s.writeLoop()
	var dlSet time.Time
	for {
		// Refresh the read deadline only when a quarter of the idle
		// window has elapsed: deadline updates allocate a timer in most
		// net.Conn implementations, and a chatty session would otherwise
		// pay that per frame. The effective timeout stays >= IdleTimeout.
		if idle := s.h.opts.IdleTimeout; idle > 0 {
			if now := time.Now(); now.Sub(dlSet) > idle/4 {
				_ = s.conn.SetReadDeadline(now.Add(idle))
				dlSet = now
			}
		}
		frame, err := readFrame(fr)
		if err != nil {
			s.kill("read: "+err.Error(), false)
			return
		}
		switch verbOf(frame) {
		case "op":
			g, perr := parseOpGroup(frame)
			if perr != nil {
				s.fail(perr.Error())
				return
			}
			s.h.commitGroup(s, g)
		case "ping":
			tok, _ := restOf(frame, 1)
			s.h.mu.Lock()
			fb := getFrame()
			s.h.frameLineLocked(fb, append(append(s.h.lineScratch(), "pong "...), tok...))
			if !s.h.enqueueControlLocked(s, fb, time.Now()) {
				// Even the control headroom is full: the session is not
				// reading at all, which is the slow-consumer disease.
				s.h.killLocked(s, "slow consumer: control queue overflow", true)
			}
			fb.release()
			s.h.mu.Unlock()
		case "bye":
			s.kill("client said bye", false)
			return
		default:
			s.fail("unknown frame " + verbOf(frame))
			return
		}
		select {
		case <-s.dead:
			return
		default:
		}
	}
}

// maxWriteBatch bounds how many queued frames one flush combines.
const maxWriteBatch = 64

// writeLoop drains staged catch-up frames and then the out queue onto the
// wire. Queued frames are write-combined: everything immediately
// available (up to maxWriteBatch) goes out under one write deadline and
// one flush, and fan-out lag is measured at the flush that made the
// frames visible to the peer.
func (s *session) writeLoop() {
	bw := bufio.NewWriter(s.conn)
	var stamps [maxWriteBatch]time.Time
	var dlSet time.Time
	// write puts first (and, when pull is set, everything immediately
	// available in the queue, up to the batch cap) on the wire under one
	// deadline and one flush. Catch-up frames are written with pull off:
	// the queue holds ops committed after the catch-up point, which must
	// not jump ahead of the staged snapshot and live marker.
	write := func(first outFrame, pull bool) bool {
		// Re-arm the write deadline only after a quarter of the timeout
		// has elapsed (deadline updates allocate a timer in most conns):
		// a healthy stream flushes in microseconds, and a wedged one still
		// times out with at least 3/4 of WriteTimeout on the clock.
		if wt := s.h.opts.WriteTimeout; wt > 0 {
			if now := time.Now(); now.Sub(dlSet) > wt/4 {
				_ = s.conn.SetWriteDeadline(now.Add(wt))
				dlSet = now
			}
		}
		n := 0
		f := first
		for {
			_, err := bw.Write(f.fb.b)
			f.fb.release()
			stamps[n] = f.t
			n++
			if err != nil {
				return s.writeFailed(err)
			}
			if !pull || n == maxWriteBatch {
				break
			}
			select {
			case f = <-s.out:
			default:
				goto flush
			}
		}
	flush:
		if err := bw.Flush(); err != nil {
			return s.writeFailed(err)
		}
		now := time.Now()
		for i := 0; i < n; i++ {
			s.h.noteLag(now.Sub(stamps[i]))
		}
		return true
	}
	for i, fb := range s.catchup {
		if !write(outFrame{fb: fb, t: time.Now()}, false) {
			for _, rest := range s.catchup[i+1:] {
				rest.release()
			}
			s.catchup = nil
			return
		}
	}
	s.catchup = nil
	for {
		// Fast path: more work already queued (the common case in a busy
		// stream) — skip the two-way select.
		select {
		case f := <-s.out:
			if !write(f, true) {
				return
			}
			continue
		default:
		}
		select {
		case f := <-s.out:
			if !write(f, true) {
				return
			}
		case <-s.dead:
			s.drainAndClose(bw)
			return
		}
	}
}

// writeFailed ends the session after a failed write and reports false.
// The connection is unusable either way, so it is cut on the spot, but
// only a write that timed out marks a slow consumer: a peer that hung up
// mid-frame is not one.
func (s *session) writeFailed(err error) bool {
	s.kill("write: "+err.Error(), errors.Is(err, os.ErrDeadlineExceeded))
	_ = s.conn.Close()
	return false
}

// drainAndClose makes a best effort to put already-queued frames — the
// err frame explaining a protocol kill in particular — on the wire before
// hanging up, bounded by one write timeout.
func (s *session) drainAndClose(bw *bufio.Writer) {
	if s.h.opts.WriteTimeout > 0 {
		_ = s.conn.SetWriteDeadline(time.Now().Add(s.h.opts.WriteTimeout))
	}
	failed := false
	for {
		select {
		case f := <-s.out:
			if !failed {
				_, err := bw.Write(f.fb.b)
				failed = err != nil
			}
			f.fb.release()
		default:
			if !failed {
				_ = bw.Flush()
			}
			_ = s.conn.Close()
			return
		}
	}
}

// enqueueDataLocked queues one shared wire buffer for a session,
// disconnecting it if the data portion of the queue is full (the
// slow-consumer policy). Host lock held.
func (h *Host) enqueueDataLocked(s *session, fb *frameBuf, t time.Time) {
	if _, ok := h.sessions[s]; !ok {
		return
	}
	if len(s.out) >= h.opts.QueueLen {
		h.killLocked(s, "slow consumer: outbound queue overflow", true)
		return
	}
	fb.retain()
	s.out <- outFrame{fb: fb, t: t}
}

// enqueueControlLocked queues a control frame (pong, err) into the
// reserved headroom above QueueLen, reporting whether it fit. The caller
// decides what an overflow means. Host lock held.
func (h *Host) enqueueControlLocked(s *session, fb *frameBuf, t time.Time) bool {
	if _, ok := h.sessions[s]; !ok {
		return true // already dead; nothing to report
	}
	fb.retain()
	select {
	case s.out <- outFrame{fb: fb, t: t}:
		return true
	default:
		fb.release()
		return false
	}
}

// failLocked reports a protocol error to the session and disconnects it.
func (h *Host) failLocked(s *session, reason string) {
	h.protoErrors++
	h.dismissLocked(s, reason)
}

// dismissLocked disconnects the session with an err frame giving the
// reason. The err frame rides the control headroom, so a full data queue
// cannot drop the explanation; the write loop drains it before closing.
func (h *Host) dismissLocked(s *session, reason string) {
	fb := getFrame()
	fb.appendLine("err " + reason)
	_ = h.enqueueControlLocked(s, fb, time.Now()) // best effort
	fb.release()
	h.killLocked(s, reason, false)
}

func (s *session) fail(reason string) {
	s.h.mu.Lock()
	s.h.failLocked(s, reason)
	s.h.mu.Unlock()
}

func (s *session) kill(reason string, slow bool) {
	s.h.mu.Lock()
	s.h.killLocked(s, reason, slow)
	s.h.mu.Unlock()
}

// killLocked tears a session down exactly once: out of the registry and
// both loops stopped. A slow consumer's connection is cut on the spot; a
// session killed for any other reason keeps its connection just long
// enough for the write loop to drain the queued frames (the err frame
// explaining the kill among them) — the read deadline is yanked to now so
// a blocked reader observes the death promptly. Host lock held.
func (h *Host) killLocked(s *session, reason string, slow bool) {
	if _, ok := h.sessions[s]; ok {
		delete(h.sessions, s)
		if slow {
			h.slowKicks++
		}
		if cs := h.clients[s.clientID]; cs != nil {
			if cs.sessions--; cs.sessions == 0 {
				cs.idleSince = time.Now()
			}
		}
	}
	s.once.Do(func() {
		close(s.dead)
		if slow {
			_ = s.conn.Close()
		} else {
			_ = s.conn.SetReadDeadline(time.Now())
		}
	})
	_ = reason // reasons surface via err frames and stats; keep for debugging
}
