package docserve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/datastream"
	"atk/internal/ops"
	"atk/internal/persist"
	"atk/internal/table"
	"atk/internal/text"
)

// Client is a live replica of a served document. It plugs into the rest of
// the toolkit as an ordinary data object: Doc() returns a *text.Data that
// views attach to and edit normally. Local edits apply immediately
// (speculatively) and are streamed to the host in groups; the host's
// committed order arrives back and the client rebases its unacknowledged
// edits across it, so every replica converges on the server's document.
//
// The discipline is one op group in flight at a time: local edits buffer
// while a group awaits its ack, and the next group is promoted only after
// the ack (or its catch-up equivalent) lands. That guarantees the server
// only ever rebases a group across *foreign* ops, which is what keeps the
// transform on both ends a simple fold.
//
// Like text.Data itself, a Client is not safe for concurrent use: all
// methods (and all edits to Doc()) belong to one owner goroutine, which
// must call Pump (or PumpWait/Sync) to apply frames the reader goroutine
// has queued. Only the connection reader and the optional heartbeat run
// concurrently, and they touch nothing but the socket.
type Client struct {
	opts    ClientOptions
	docName string

	conn net.Conn
	fr   *datastream.LineReader // the connection's frame reader
	wmu  sync.Mutex             // guards bw: owner sends vs heartbeat pings
	bw   *bufio.Writer

	doc *text.Data // visible replica: confirmed state + inflight + buffer

	epoch     uint64
	confirmed uint64
	live      bool
	attached  bool
	// snapAcc assembles an in-progress snapshot from its snapr frames.
	snapAcc  *snapAccum
	draining bool // Resume is replaying the dead connection's leftovers

	nextClientSeq uint64
	inflight      *inflightGroup
	buffer        []ops.Op

	inbox  chan string // reader goroutine -> owner; closed on read error
	hbStop chan struct{}
	hbSeq  int

	// pumpTimer is PumpWait's reusable wait timer (owner goroutine only).
	pumpTimer *time.Timer

	// Reusable send buffers: wire holds escaped physical bytes (under
	// wmu); lineBuf builds op-group logical lines (owner goroutine).
	wire    []byte
	lineBuf []byte

	// DroppedPending counts local edits discarded by a snapshot resync (the
	// host could not replay ops across the gap, so unconfirmed local work
	// could not be rebased and did not survive).
	DroppedPending int
	// Resets counts local mutations the op model could not express (an
	// object embedded outside Client.Embed, a component inside a table
	// cell). Each one latches the client — the replica has diverged from
	// anything the wire can reconcile — after surfacing through OnReset.
	Resets int
	// OfflineRecovered counts edits replayed from a crashed predecessor's
	// offline journal at Connect.
	OfflineRecovered int

	lastErr error
	closed  bool

	// Self-healing state (see heal.go). state and reconnects are atomics so
	// any goroutine may observe them; everything else is owner-only except
	// rng and the channels, which the supervisor owns while it runs.
	state      atomic.Int32  // ConnState
	reconnects atomic.Uint64 // successful resumes
	healing    bool          // a supervisor is (re)dialing
	connLost   bool          // lastErr latched by a transport loss, not a protocol error
	attempts   int           // dial attempts this outage
	resumeErr  error         // last failed heal-resume cause, for the give-up report
	rng        *rand.Rand    // backoff jitter; owner creates, supervisor uses while running
	healc      chan healEvent
	healAck    chan bool
	superStop  chan struct{}
	superDone  chan struct{}

	// Offline edit durability (see heal.go).
	offline    *persist.Journal
	offlineErr error
}

// inflightGroup is the one op group awaiting its ack.
type inflightGroup struct {
	clientSeq uint64
	recs      []ops.Op
}

// ClientOptions tune a replica. The zero value needs ClientID and Registry
// filled in; everything else has defaults.
type ClientOptions struct {
	// ClientID names this replica to the host; it must be unique among the
	// document's clients (reconnects reuse it — that is how the host knows
	// a resumed session's dedup state).
	ClientID string
	// Registry decodes document snapshots.
	Registry *class.Registry
	// IdleTimeout is the per-read deadline (0 = none). With HeartbeatEvery
	// set below it, a healthy connection never trips it.
	IdleTimeout time.Duration
	// HeartbeatEvery pings the host periodically so its idle timeout sees a
	// live session even when the user stops typing (0 = no heartbeats).
	HeartbeatEvery time.Duration
	// OnRemoteOp, if set, is called (on the owner goroutine, from Pump)
	// after each foreign committed op is applied.
	OnRemoteOp func(seq uint64)
	// OnReset, if set, is called (owner goroutine) when a local mutation
	// cannot be expressed as a replicable op, just before the client
	// latches fatal — the UI's chance to say why the session ended.
	OnReset func(reason string)

	// Dial, if set, makes the client self-heal: on connection loss a
	// supervisor goroutine redials through it with exponential backoff and
	// full jitter, and the next Pump resumes the session. Unset, a lost
	// connection latches the client dead (the historical behavior); the
	// owner may still call Resume by hand.
	Dial func() (net.Conn, error)
	// BackoffBase/BackoffCap bound the redial schedule: attempt n sleeps
	// rand(0, min(BackoffCap, BackoffBase<<(n-1))). Defaults 50ms / 3s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BackoffSeed seeds the jitter for reproducible schedules in tests.
	// 0 seeds from the clock.
	BackoffSeed int64
	// OnState, if set, is called on each connection-state transition, on
	// the owner goroutine, with the error that caused it (nil on recovery).
	OnState func(s ConnState, cause error)

	// OfflineFS/OfflinePath, when both set, enable the offline edit
	// journal: while disconnected every pending and new local edit is kept
	// in a CRC-framed journal at OfflinePath (fsync per append), so a crash
	// of the editor itself while offline loses nothing. Connect replays a
	// leftover journal when the server state still matches it exactly, and
	// sets a non-replayable one aside as OfflinePath+".stale".
	OfflineFS   persist.FS
	OfflinePath string

	// handshakeTimeout bounds each read during Connect/Resume catch-up
	// when IdleTimeout is unset, so a server that accepts but never
	// streams makes Connect fail instead of hang. Default 30s.
	handshakeTimeout time.Duration
	// maxAttempts caps dial attempts per outage before the client latches
	// Failed. 0 means retry forever.
	maxAttempts int
	// offlineAfter is how many consecutive failed attempts demote
	// Reconnecting to Offline (the user-visible "this outage is real").
	// Default 3.
	offlineAfter int
}

const (
	// maxGroup bounds records per op group (at most MaxRecordsPerOp).
	maxGroup = 256
	// inboxLen bounds frames queued between the reader goroutine and Pump.
	inboxLen = 1024
)

func (o ClientOptions) withDefaults() ClientOptions {
	if o.handshakeTimeout <= 0 {
		o.handshakeTimeout = 30 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 3 * time.Second
	}
	if o.offlineAfter <= 0 {
		o.offlineAfter = 3
	}
	return o
}

// Connect attaches to docName over conn: hello, synchronous catch-up to
// the live point (snapshot included), then background reader + heartbeat.
// On success the client owns conn.
func Connect(conn net.Conn, docName string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	if !nameOK(opts.ClientID) {
		conn.Close()
		return nil, errors.New("docserve: a valid ClientID is required")
	}
	if !nameOK(docName) {
		conn.Close()
		return nil, errors.New("docserve: bad document name")
	}
	if opts.Registry == nil {
		conn.Close()
		return nil, errors.New("docserve: a class registry is required to decode snapshots")
	}
	c := &Client{
		opts:    opts,
		docName: docName,
		conn:    conn,
		fr:      newFrameReader(conn),
		bw:      bufio.NewWriter(conn),
	}
	seed := opts.BackoffSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c.rng = rand.New(rand.NewSource(seed))
	if err := c.sendRaw(encodeHello(docName, opts.ClientID)); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.catchUp(); err != nil {
		conn.Close()
		return nil, err
	}
	if !c.attached {
		conn.Close()
		return nil, errors.New("docserve: server went live without a snapshot")
	}
	// A crashed predecessor session may have left offline edits behind;
	// replay them before the background reader starts.
	c.recoverOffline()
	c.startReader()
	c.startHeartbeat()
	return c, nil
}

// Resume reattaches over a fresh connection after a disconnect, presenting
// the epoch and confirmed seq so the host can replay just the missed ops.
// Unacknowledged local edits survive: the in-flight group is re-sent (the
// host answers idempotently if it had in fact committed it) and buffered
// edits promote as usual. Only a snapshot resync — the host's history
// window no longer reaching our resume point — discards them, counted in
// DroppedPending.
func (c *Client) Resume(conn net.Conn) error {
	c.stopHeartbeat()
	if c.conn != nil {
		_ = c.conn.Close()
	}
	if err := c.drainDeadInbox(); err != nil {
		return err
	}
	c.lastErr = nil
	c.live = false
	c.closed = false
	c.snapAcc = nil // a partial snapshot died with the old connection
	c.wmu.Lock()
	c.conn = conn
	c.bw = bufio.NewWriter(conn)
	c.wmu.Unlock()
	c.fr = newFrameReader(conn)
	if err := c.sendRaw(encodeHelloResume(c.docName, c.opts.ClientID, c.epoch, c.confirmed)); err != nil {
		return err
	}
	if err := c.catchUp(); err != nil {
		return err
	}
	c.startReader()
	c.startHeartbeat()
	return nil
}

// catchUp processes frames synchronously until the host says live. Every
// catch-up read carries a deadline — IdleTimeout when set, else
// handshakeTimeout — so Connect/Resume fail instead of hanging on a
// server that accepted the hello but never streams.
func (c *Client) catchUp() error {
	d := c.opts.IdleTimeout
	if d <= 0 {
		d = c.opts.handshakeTimeout
	}
	for {
		_ = c.conn.SetReadDeadline(time.Now().Add(d))
		frame, err := readFrame(c.fr)
		if err != nil {
			return fmt.Errorf("docserve: catch-up read: %w", err)
		}
		if err := c.handleFrame(frame); err != nil {
			return err
		}
		if c.live {
			// The handshake deadline must not outlive the handshake: the
			// steady-state reader sets its own (or runs without one).
			_ = c.conn.SetReadDeadline(time.Time{})
			return nil
		}
	}
}

// startReader spawns the connection reader for the current conn. It is the
// inbox's only sender and closes it when the connection dies.
func (c *Client) startReader() {
	inbox := make(chan string, inboxLen)
	c.inbox = inbox
	conn, fr, idle := c.conn, c.fr, c.opts.IdleTimeout
	go func() {
		defer close(inbox)
		var dlSet time.Time
		for {
			// Throttled like the server's reader: refresh the deadline only
			// after a quarter of the idle window, so a busy stream is not
			// paying a timer update per frame.
			if idle > 0 {
				if now := time.Now(); now.Sub(dlSet) > idle/4 {
					_ = conn.SetReadDeadline(now.Add(idle))
					dlSet = now
				}
			}
			frame, err := readFrame(fr)
			if err != nil {
				return
			}
			inbox <- frame
		}
	}()
}

func (c *Client) startHeartbeat() {
	if c.opts.HeartbeatEvery <= 0 {
		return
	}
	stop := make(chan struct{})
	c.hbStop = stop
	go func() {
		t := time.NewTicker(c.opts.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.hbSeq++
				if c.sendRaw(fmt.Sprintf("ping hb%d", c.hbSeq)) != nil {
					return // reader will notice the dead conn and close the inbox
				}
			case <-stop:
				return
			}
		}
	}()
}

func (c *Client) stopHeartbeat() {
	if c.hbStop != nil {
		close(c.hbStop)
		c.hbStop = nil
	}
}

// Close says bye and tears the connection down. The bye is best-effort
// with a short deadline: a wedged server must not make Close hang. An
// in-flight reconnect supervisor is stopped; the offline journal is kept
// on disk iff it still holds unconfirmed edits (FlushOffline first to
// learn its path), and removed otherwise.
func (c *Client) Close() error {
	c.stopHeartbeat()
	c.stopSupervisor()
	c.healing = false
	c.closed = true
	if c.offline != nil {
		_ = c.offline.Sync()
		_ = c.offline.Close()
		if c.PendingCount() == 0 {
			_ = c.opts.OfflineFS.Remove(c.opts.OfflinePath)
		}
		c.offline = nil
	}
	if c.conn == nil {
		return nil
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = c.sendRaw("bye")
	return c.conn.Close()
}

// Doc returns the visible replica. Edit it like any document; edits
// replicate automatically.
func (c *Client) Doc() *text.Data { return c.doc }

// Confirmed returns the last server seq this replica has applied.
func (c *Client) Confirmed() uint64 { return c.confirmed }

// Epoch returns the host journal generation this replica is attached to.
func (c *Client) Epoch() uint64 { return c.epoch }

// PendingCount returns how many local edit records await confirmation.
func (c *Client) PendingCount() int {
	n := len(c.buffer)
	if c.inflight != nil {
		n += len(c.inflight.recs)
	}
	return n
}

// Err returns the latched fatal error, if any. A client with an error is
// dead until Resume.
func (c *Client) Err() error { return c.lastErr }

// Live reports whether the replica has caught up to the host's stream.
func (c *Client) Live() bool { return c.live }

// Pump applies every frame the reader has queued, without blocking. Call
// it from the owner's idle loop. With a Dial configured, Pump is also
// where healing happens: a detected loss starts the supervisor, and a
// successful redial resumes the session — both on this goroutine, so the
// replica never sees concurrent mutation.
func (c *Client) Pump() error {
	c.pumpHeal()
	if err := c.pumpLost(); err != nil {
		return err
	}
	for {
		if c.inbox == nil {
			return c.lastErr
		}
		select {
		case f, ok := <-c.inbox:
			if !ok {
				return c.lostConn(errors.New("docserve: connection lost"), 0)
			}
			if err := c.handleFrame(f); err != nil {
				return c.frameErr(err)
			}
		default:
			// A send that failed while these frames were handled is a
			// transport loss like any other: heal it, don't report it.
			if err := c.pumpLost(); err != nil {
				return err
			}
			return c.lastErr
		}
	}
}

// pumpLost converts a transport-loss latch (a failed send, noticed before
// the reader saw the dead socket) into a heal.
func (c *Client) pumpLost() error {
	if !c.connLost {
		return nil
	}
	c.connLost = false
	cause := c.lastErr
	c.lastErr = nil
	return c.lostConn(cause, 0)
}

// frameErr routes a handleFrame error: a server drain notice starts a
// heal; anything else is already latched fatal.
func (c *Client) frameErr(err error) error {
	var lost *connLostError
	if errors.As(err, &lost) {
		return c.lostConn(lost.cause, lost.retryAfter)
	}
	return err
}

// PumpWait blocks up to d for at least one frame, then drains the rest.
// While healing it waits on the supervisor instead — a successful redial
// wakes it to resume rather than sleeping out the full wait.
func (c *Client) PumpWait(d time.Duration) error {
	c.pumpHeal()
	if err := c.pumpLost(); err != nil {
		return err
	}
	if c.inbox != nil {
		// Fast path: a frame is already queued — no timer needed at all. In
		// a busy stream this is the common case.
		select {
		case f, ok := <-c.inbox:
			if !ok {
				return c.lostConn(errors.New("docserve: connection lost"), 0)
			}
			if err := c.handleFrame(f); err != nil {
				return c.frameErr(err)
			}
			return c.Pump()
		default:
		}
	} else if !c.healing {
		return c.lastErr
	}
	// The wait timer is reused across calls (PumpWait runs once per
	// delivered frame in a read-mostly replica's idle loop; a fresh timer
	// per call is measurable garbage). Stop-and-drain leaves it ready for
	// the next Reset.
	if c.pumpTimer == nil {
		c.pumpTimer = time.NewTimer(d)
	} else {
		c.pumpTimer.Reset(d)
	}
	stop := func() {
		if !c.pumpTimer.Stop() {
			select {
			case <-c.pumpTimer.C:
			default:
			}
		}
	}
	if c.inbox == nil {
		// Healing: the only thing worth waking for is a supervisor event.
		select {
		case ev := <-c.healc:
			stop()
			c.handleHealEvent(ev)
			if c.inbox != nil {
				return c.Pump()
			}
			return c.lastErr
		case <-c.pumpTimer.C:
			return c.lastErr
		}
	}
	select {
	case f, ok := <-c.inbox:
		stop()
		if !ok {
			return c.lostConn(errors.New("docserve: connection lost"), 0)
		}
		if err := c.handleFrame(f); err != nil {
			return c.frameErr(err)
		}
		return c.Pump()
	case <-c.pumpTimer.C:
		return c.lastErr
	}
}

// Sync pumps until every local edit is confirmed or timeout elapses.
func (c *Client) Sync(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		// Success is checked before any pump error: Pump latches
		// "connection lost" the moment it drains past the inbox's closed
		// end, which may be the very call that confirmed the last edit.
		// Reaching the goal and then losing the connection is success.
		err := c.Pump()
		if c.inflight == nil && len(c.buffer) == 0 {
			return nil
		}
		if err != nil {
			return err
		}
		rem := time.Until(deadline)
		if rem <= 0 {
			return fmt.Errorf("docserve: sync timed out with %d edits pending", c.PendingCount())
		}
		if err := c.PumpWait(rem); err != nil {
			if c.inflight == nil && len(c.buffer) == 0 {
				return nil // the frame that confirmed the last edit came with the loss
			}
			return err
		}
	}
}

// WaitSeq pumps until the replica has applied server seq or beyond.
func (c *Client) WaitSeq(seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		// As in Sync: the frames that reach seq and the connection loss
		// can arrive in the same Pump; the goal being met wins.
		err := c.Pump()
		if c.confirmed >= seq {
			return nil
		}
		if err != nil {
			return err
		}
		rem := time.Until(deadline)
		if rem <= 0 {
			return fmt.Errorf("docserve: timed out at seq %d waiting for %d", c.confirmed, seq)
		}
		if err := c.PumpWait(rem); err != nil {
			if c.confirmed >= seq {
				return nil // the frame that reached seq came with the loss
			}
			return err
		}
	}
}

// fatal latches err and returns it; the client is dead until Resume.
func (c *Client) fatal(err error) error {
	if c.lastErr == nil {
		c.lastErr = err
	}
	// A latch during a heal attempt is the attempt failing, not the client
	// dying — handleHealEvent clears it and the supervisor retries.
	if c.attached && !c.healing && !c.closed {
		c.setState(StateFailed, c.lastErr)
	}
	return err
}

// handleFrame dispatches one server frame on the owner goroutine.
func (c *Client) handleFrame(frame string) error {
	switch verbOf(frame) {
	case "snapr":
		return c.handleSnapRange(frame)
	case "op":
		m, err := parseCommitted(frame)
		if err != nil {
			return c.fatal(err)
		}
		return c.handleCommitted(m)
	case "ok":
		cseq, n, hi, err := fields3(frame, "ok")
		if err != nil {
			return c.fatal(err)
		}
		return c.handleAck(cseq, int(n), hi)
	case "live":
		return c.handleLive(frame)
	case "pong":
		return nil
	case "bye":
		if reason, retryAfter, ok := parseBye(frame); ok {
			// A drain notice: the server is going away on purpose and says
			// when to come back. Not latched — Pump turns it into a heal
			// (or a plain error for clients without a Dial).
			return &connLostError{
				cause:      fmt.Errorf("docserve: server draining: %s", reason),
				retryAfter: retryAfter,
			}
		}
		return c.fatal(errors.New("docserve: server closed the session"))
	case "err":
		reason, _ := restOf(frame, 1)
		return c.fatal(fmt.Errorf("docserve: server error: %s", reason))
	default:
		return c.fatal(fmt.Errorf("docserve: unknown frame %q", verbOf(frame)))
	}
}

// decodeSnapshot parses a document snapshot body.
func decodeSnapshot(b []byte, reg *class.Registry) (*text.Data, error) {
	r := datastream.NewReaderOptions(bytes.NewReader(b), datastream.Options{Mode: datastream.Strict})
	obj, err := core.ReadObject(r, reg)
	if err != nil {
		return nil, fmt.Errorf("docserve: snapshot: %w", err)
	}
	doc, ok := obj.(*text.Data)
	if !ok {
		return nil, fmt.Errorf("docserve: snapshot holds a %s, not a text document", obj.TypeName())
	}
	doc.SetRegistry(reg)
	return doc, nil
}

// snapAccum collects the snapr range frames of one chunked snapshot until
// the announced total arrives.
type snapAccum struct {
	epoch, seq uint64
	total      int
	buf        []byte
}

// handleSnapRange accumulates one "snapr <epoch> <seq> <total> <offset>
// <chunk>" frame. The server stages ranges in order and gapless, so any
// discontinuity is a protocol error, not something to repair.
func (c *Client) handleSnapRange(frame string) error {
	parts := strings.SplitN(frame, " ", 6)
	if len(parts) < 5 || parts[0] != "snapr" {
		return c.fatal(fmt.Errorf("%w: snapr", errBadFrame))
	}
	epoch, err1 := strconv.ParseUint(parts[1], 10, 64)
	seq, err2 := strconv.ParseUint(parts[2], 10, 64)
	total, err3 := strconv.Atoi(parts[3])
	offset, err4 := strconv.Atoi(parts[4])
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || total < 0 || offset < 0 {
		return c.fatal(fmt.Errorf("%w: snapr header", errBadFrame))
	}
	body := ""
	if len(parts) == 6 {
		body = parts[5]
	}
	if c.snapAcc == nil {
		if offset != 0 {
			return c.fatal(fmt.Errorf("docserve: snapshot range starts at offset %d, not 0", offset))
		}
		c.snapAcc = &snapAccum{epoch: epoch, seq: seq, total: total}
	}
	acc := c.snapAcc
	if epoch != acc.epoch || seq != acc.seq || total != acc.total || offset != len(acc.buf) {
		c.snapAcc = nil
		return c.fatal(errors.New("docserve: snapshot range out of order"))
	}
	if len(acc.buf)+len(body) > total {
		c.snapAcc = nil
		return c.fatal(errors.New("docserve: snapshot ranges overflow the announced size"))
	}
	if need := len(acc.buf) + len(body); need > cap(acc.buf) {
		// total is the peer's claim, not a fact: grow in proportion to the
		// bytes that have arrived, so a hostile header costs at most a few
		// times what was actually sent. An honest snapshot of up to four
		// frames gets its exact size at the first frame.
		acc.buf = append(make([]byte, 0, min(total, 4*need)), acc.buf...)
	}
	acc.buf = append(acc.buf, body...)
	if len(acc.buf) < total {
		return nil
	}
	c.snapAcc = nil
	return c.applySnapshot(acc.epoch, acc.seq, acc.buf)
}

// applySnapshot installs a complete snapshot body, assembled from its
// snapr frames, as the confirmed state at (epoch, seq).
func (c *Client) applySnapshot(epoch, seq uint64, body []byte) error {
	snapDoc, err := decodeSnapshot(body, c.opts.Registry)
	if err != nil {
		return c.fatal(err)
	}
	if !c.attached {
		c.doc = snapDoc
		c.doc.SetEditLogger(c.onEdit)
		c.attached = true
		// Components that arrived inside the snapshot replicate too: wire
		// their op loggers so a cell edit in an embedded table buffers
		// like a keystroke.
		for _, e := range c.doc.Embeds() {
			c.wireEmbedded(e)
		}
	} else {
		// Resync snapshot: rebuild the visible document in place (views
		// stay attached to it) to exactly the server state. Unconfirmed
		// local edits cannot be rebased across an unknown gap; they are
		// discarded and counted. ApplyRecord keeps the rebuild out of the
		// edit logger, and WithoutUndo keeps it out of the user's undo.
		if len(snapDoc.Embeds()) > 0 {
			return c.fatal(errors.New("docserve: snapshot with embedded components cannot be resynced in place"))
		}
		var aerr error
		c.doc.WithoutUndo(func() {
			if n := c.doc.Len(); n > 0 {
				aerr = c.doc.ApplyRecord(text.EditRecord{Kind: text.RecDelete, Pos: 0, N: n})
			}
			if aerr == nil && snapDoc.Len() > 0 {
				aerr = c.doc.ApplyRecord(text.EditRecord{Kind: text.RecInsert, Pos: 0, Text: snapDoc.String()})
			}
			if aerr == nil {
				aerr = c.doc.ApplyRecord(text.EditRecord{Kind: text.RecStyle, Runs: snapDoc.Runs()})
			}
		})
		if aerr != nil {
			return c.fatal(aerr)
		}
		if dropped := c.PendingCount(); dropped > 0 {
			c.DroppedPending += dropped
			if c.offline != nil {
				// The journaled edits did not survive the resync; keep them
				// recoverable by hand instead of deleting them on ack.
				c.dropOffline(".dropped")
			}
		}
		c.inflight = nil
		c.buffer = nil
		c.maybeDiscardOffline()
	}
	c.epoch, c.confirmed = epoch, seq
	return nil
}

func (c *Client) handleCommitted(m committedMsg) error {
	if !c.attached {
		return c.fatal(errors.New("docserve: committed op before any snapshot"))
	}
	if m.seq != c.confirmed+1 {
		return c.fatal(fmt.Errorf("docserve: op sequence gap: got %d want %d", m.seq, c.confirmed+1))
	}
	op, err := ops.Decode(m.payload)
	if err != nil {
		return c.fatal(err)
	}

	if m.clientID == c.opts.ClientID {
		// Our own committed op, re-delivered during catch-up: an implicit
		// ack for the front of the in-flight group. The server's record
		// equals our transformed copy (both sides folded the same bridge),
		// so the visible document already contains it.
		if c.inflight == nil || len(c.inflight.recs) == 0 || m.clientSeq != c.inflight.clientSeq {
			return c.fatal(fmt.Errorf("docserve: unexpected echo of own op group %d", m.clientSeq))
		}
		c.confirmed = m.seq
		c.inflight.recs = c.inflight.recs[1:]
		if len(c.inflight.recs) == 0 {
			c.inflight = nil
			c.maybePromote()
			c.maybeDiscardOffline()
		}
		return nil
	}

	// A foreign committed op. The read-mostly replica — nothing in flight,
	// nothing buffered — applies it straight to the visible document; only
	// a replica with pending local edits pays for the dual transform.
	var aerr error
	if c.inflight == nil && len(c.buffer) == 0 {
		aerr = c.applyForeign(op)
	} else {
		// Rebase the pending local edits across the foreign op and its
		// visible-document form across them, then apply.
		one := []ops.Op{op}
		if c.inflight != nil {
			c.inflight.recs, one = ops.XformDual(c.inflight.recs, one, true)
		}
		var vis []ops.Op
		c.buffer, vis = ops.XformDual(c.buffer, one, true)
		for _, r := range vis {
			if aerr = c.applyForeign(r); aerr != nil {
				break
			}
		}
	}
	if aerr != nil {
		return c.fatal(fmt.Errorf("docserve: remote op inapplicable: %w", aerr))
	}
	c.confirmed = m.seq
	if c.opts.OnRemoteOp != nil {
		c.opts.OnRemoteOp(m.seq)
	}
	return nil
}

func (c *Client) handleAck(clientSeq uint64, n int, hi uint64) error {
	if c.inflight == nil || clientSeq != c.inflight.clientSeq {
		return c.fatal(fmt.Errorf("docserve: stray ack for group %d", clientSeq))
	}
	// A group that rebased to nothing leaves no trace in the op stream, so
	// when its ack is lost with a connection the re-sent copy is answered
	// from the server's dedup window with the hi recorded at original
	// commit time — by now behind our confirmed. Our own transformed copy
	// must agree it was nothing (it folded the same bridge); then there is
	// simply nothing to apply.
	if n == 0 && len(c.inflight.recs) == 0 && hi <= c.confirmed {
		c.inflight = nil
		c.maybePromote()
		c.maybeDiscardOffline()
		return nil
	}
	// Every bridge op reached us before the ack (the stream is ordered), so
	// our transformed in-flight copy must match what the server committed.
	if n != len(c.inflight.recs) || hi != c.confirmed+uint64(n) {
		return c.fatal(fmt.Errorf("docserve: ack mismatch: server committed %d records to seq %d, client has %d at seq %d",
			n, hi, len(c.inflight.recs), c.confirmed))
	}
	c.confirmed = hi
	c.inflight = nil
	c.maybePromote()
	c.maybeDiscardOffline()
	return nil
}

func (c *Client) handleLive(frame string) error {
	f := strings.Fields(frame)
	if len(f) != 2 {
		return c.fatal(fmt.Errorf("%w: live", errBadFrame))
	}
	if c.snapAcc != nil {
		return c.fatal(fmt.Errorf("%w: live before the snapshot completed", errBadFrame))
	}
	seq, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil || seq != c.confirmed {
		return c.fatal(fmt.Errorf("docserve: live at %s but replica confirmed %d", f[1], c.confirmed))
	}
	c.live = true
	if c.inflight != nil {
		// The group (or just its ack) was lost with the old connection.
		// Re-send against the caught-up base; the host's dedup answers
		// idempotently if it had committed it after all.
		c.sendGroup()
	} else {
		c.maybePromote()
	}
	return nil
}

// applyForeign applies one committed foreign op to the visible document.
// A foreign embed op creates a component this replica has never seen; its
// op logger is wired right here so the next cell edit replicates.
func (c *Client) applyForeign(op ops.Op) error {
	if err := ops.Apply(c.doc, op); err != nil {
		return err
	}
	if op.Kind == ops.KindEmbed {
		if e := c.doc.EmbeddedAt(op.Embed.Pos); e != nil {
			c.wireEmbedded(e)
		}
	}
	return nil
}

// onEdit is the visible document's edit logger: every local mutation lands
// here (ApplyRecord replays are suppressed upstream), buffers, and
// promotes when the wire is free.
func (c *Client) onEdit(rec text.EditRecord) {
	if rec.Kind == text.RecReset {
		c.noteReset(rec.Text)
		return
	}
	c.enqueue(ops.TextOp(rec))
}

// enqueue buffers one replicable local op, journals it for offline
// durability, and promotes when the wire is free.
func (c *Client) enqueue(op ops.Op) {
	c.buffer = append(c.buffer, op)
	c.logOffline(op)
	c.maybePromote()
}

// noteReset handles a local mutation the op model cannot express: count
// it, give the UI its say, then latch — the replica has diverged from
// anything the wire can reconcile.
func (c *Client) noteReset(reason string) {
	c.Resets++
	if c.opts.OnReset != nil {
		c.opts.OnReset(reason)
	}
	_ = c.fatal(fmt.Errorf("docserve: %s: cannot be replicated", reason))
}

// wireEmbedded installs the replication op logger on an embedded
// component, if its kind replicates. The closure reads e.Pos at emit time,
// so the anchor the op ships is wherever concurrent text edits have moved
// the table to by then.
func (c *Client) wireEmbedded(e *text.Embedded) {
	td, ok := e.Obj.(*table.Data)
	if !ok {
		return
	}
	td.SetOpLogger(func(op table.Op) {
		// A committed delete may have swallowed the anchor since wiring:
		// the component left the document, so its edits are local-only now.
		// (Identity check — another embed may occupy the stale position.)
		if c.doc.EmbeddedAt(e.Pos) != e {
			td.SetOpLogger(nil)
			return
		}
		if op.Kind == table.OpReset {
			c.noteReset(op.Reason)
			return
		}
		c.enqueue(ops.Op{Kind: ops.KindTable, Table: ops.TableOp{Pos: e.Pos, Op: op}})
	})
}

// Embed inserts obj as an embedded component at pos and replicates it: the
// object is encoded once into a \begindata payload, applied locally, and
// shipped as an embed op every replica applies identically. Tables
// embedded this way replicate their cell edits live. viewName "" selects
// the object's default view.
func (c *Client) Embed(pos int, obj core.DataObject, viewName string) error {
	if c.lastErr != nil {
		return c.lastErr
	}
	if !c.attached {
		return errors.New("docserve: Embed before any snapshot")
	}
	var payload bytes.Buffer
	w := datastream.NewWriter(&payload)
	if _, err := core.WriteObject(w, obj); err != nil {
		return fmt.Errorf("docserve: encoding embed payload: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("docserve: encoding embed payload: %w", err)
	}
	var aerr error
	err := c.doc.ApplyExternal(func() error {
		aerr = c.doc.Embed(pos, obj, viewName)
		return aerr
	})
	if err == nil {
		err = aerr
	}
	if err != nil {
		return err
	}
	if e := c.doc.EmbeddedAt(pos); e != nil {
		c.wireEmbedded(e)
		// Ship the locally resolved view name ("" already expanded to the
		// object's default), so every replica records the same view even if
		// its own default resolution would differ.
		viewName = e.ViewName
	}
	c.enqueue(ops.Op{Kind: ops.KindEmbed, Embed: ops.EmbedOp{
		Pos: pos, ViewName: viewName, Payload: append([]byte(nil), payload.Bytes()...),
	}})
	return nil
}

// maybePromote moves buffered edits into a new in-flight group when the
// previous one is confirmed and the stream is live.
func (c *Client) maybePromote() {
	if !c.live || c.lastErr != nil || c.closed || c.inflight != nil || len(c.buffer) == 0 {
		return
	}
	k := min(len(c.buffer), maxGroup)
	c.nextClientSeq++
	c.inflight = &inflightGroup{clientSeq: c.nextClientSeq, recs: c.buffer[:k:k]}
	c.buffer = append([]ops.Op(nil), c.buffer[k:]...)
	c.sendGroup()
}

// sendGroup encodes and sends the in-flight group, building the logical
// line in a reusable buffer. Failures latch; the in-flight state is kept
// so Resume can re-send.
func (c *Client) sendGroup() {
	if c.draining {
		return // the old connection is gone; Resume re-sends what matters
	}
	c.lineBuf = appendOpGroup(c.lineBuf[:0], c.inflight.clientSeq, c.confirmed, c.inflight.recs)
	c.wmu.Lock()
	c.wire = datastream.AppendEscapedBytes(c.wire[:0], c.lineBuf)
	_, err := c.bw.Write(c.wire)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil && c.lastErr == nil {
		c.lastErr = fmt.Errorf("docserve: send: %w", err)
		// A failed send is a transport loss: the next Pump heals it (the
		// in-flight state is kept, so the resumed session re-sends).
		c.connLost = true
	}
}

// sendRaw writes a frame; safe from the heartbeat goroutine too.
func (c *Client) sendRaw(line string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wire = datastream.AppendEscaped(c.wire[:0], line)
	if _, err := c.bw.Write(c.wire); err != nil {
		return err
	}
	return c.bw.Flush()
}
