// Package docserve is the networked shared-document subsystem: a document
// host that makes remote processes first-class observers of a data object.
// The paper's observer mechanism (§2) stretched over a socket: one
// authoritative text document lives in the server, N client sessions each
// hold a live replica, local edits are speculative and rebased on ack, and
// every committed op fans out to every attached session so all replicas
// converge on the server's total order. The op log is the same CRC-framed
// journal the crash-safe document lifecycle uses (internal/persist), so
// the server's durability story is the editor's: after a crash the host
// reopens to the saved document plus a durable prefix of the committed
// ops, never a torn hybrid.
package docserve

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"atk/internal/class"
	"atk/internal/datastream"
	"atk/internal/ops"
	"atk/internal/persist"
	"atk/internal/text"
)

// HostOptions tune one served document. The zero value gets sane defaults.
type HostOptions struct {
	// QueueLen bounds each session's outbound queue. A session whose queue
	// is full when a broadcast arrives is a slow consumer and is
	// disconnected — fan-out never blocks on one laggard and never buffers
	// unbounded memory. Default 1024, the client's own inbox bound: a
	// healthy reader whose write goroutine waits out a few scheduler time
	// slices while an uncapped writer commits ~15k groups/s queues a few
	// hundred frames, and must not be taken for a slow consumer.
	QueueLen int
	// IdleTimeout is the per-session read deadline; a session silent for
	// this long (no ops, no pings) is disconnected. Default 60s.
	IdleTimeout time.Duration
	// WriteTimeout bounds one outbound frame write. Default 10s.
	WriteTimeout time.Duration
	// MaxSnapshotBytes bounds how many document bytes one "snapr" snapshot
	// frame carries. A document whose encoding fits is served as one
	// frame; a bigger one streams as a run of range frames, each at most
	// this large — so this is a framing knob, not a document-size ceiling.
	// Defaults to (and is clamped to) the protocol frame limit less header
	// room.
	MaxSnapshotBytes int
	// DrainRetryAfter is the retry-after hint a graceful drain's bye frame
	// carries: clients should not redial sooner. Default 1s.
	DrainRetryAfter time.Duration

	// historyLimit is how many committed ops the host keeps in memory for
	// op-level resync. A reconnect whose gap exceeds it falls back to a
	// full snapshot. Default 4096.
	historyLimit int
	// clientRetention is how long a disconnected client identity's dedup
	// state (last group seq + recent acks) is kept for reconnect
	// idempotence. State older than this is pruned; a client resuming
	// after that gets a snapshot resync and starts a fresh dedup history.
	// Default 10m.
	clientRetention time.Duration
	// maxClients bounds the client-identity map outright (a hostile peer
	// minting fresh IDs at connection rate must not grow it without
	// limit): past the bound, the longest-idle disconnected identities
	// are evicted early. Default 4 * maxSessions.
	maxClients int
}

// maxSessions bounds concurrent sessions per document.
const maxSessions = 1024

func (o HostOptions) withDefaults() HostOptions {
	if o.historyLimit <= 0 {
		o.historyLimit = 4096
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 1024
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 60 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.clientRetention <= 0 {
		o.clientRetention = 10 * time.Minute
	}
	if o.maxClients <= 0 {
		o.maxClients = 4 * maxSessions
	}
	if o.MaxSnapshotBytes <= 0 || o.MaxSnapshotBytes > maxServeBytes {
		o.MaxSnapshotBytes = maxServeBytes
	}
	if o.DrainRetryAfter <= 0 {
		o.DrainRetryAfter = time.Second
	}
	return o
}

// maxServeBytes is the hard ceiling on one snapshot frame's document
// bytes: the snapr frame must decode within MaxFrameBytes on the client,
// header included.
const maxServeBytes = MaxFrameBytes - 64

// committedOp is one op in the authoritative order.
type committedOp struct {
	seq       uint64
	clientID  string
	clientSeq uint64
	wire      string
}

// clientState is what the host remembers about a client identity across
// sessions (reconnects), for idempotent re-sends. Identities are not kept
// forever: once no session holds one, it expires after clientRetention
// (or earlier under maxClients pressure) — otherwise every clientID ever
// seen would leak a map entry for the host's lifetime.
type clientState struct {
	lastSeq uint64
	// acks maps recently committed clientSeqs to their ack, so an op
	// re-sent after a lost ack is answered, not re-applied.
	acks map[uint64]ackRange
	// seeded flips true at the first committed group: a freshly (re)minted
	// identity adopts whatever clientSeq its first group carries, so a
	// client whose state was pruned can reconnect mid-count.
	seeded bool
	// sessions counts live sessions attached under this identity;
	// idleSince is when it last dropped to zero (the retention clock).
	sessions  int
	idleSince time.Time
}

type ackRange struct {
	n  int
	hi uint64
}

// ackRetain bounds the per-client dedup window.
const ackRetain = 64

// pruneClientsLocked expires disconnected client identities: every one
// idle past the retention window, then — while the map still exceeds
// maxClients — the longest-idle remainder. Live identities are never
// evicted (maxSessions already bounds those).
func (h *Host) pruneClientsLocked(now time.Time) {
	for id, cs := range h.clients {
		if cs.sessions == 0 && now.Sub(cs.idleSince) >= h.opts.clientRetention {
			delete(h.clients, id)
		}
	}
	for len(h.clients) > h.opts.maxClients {
		oldestID := ""
		var oldest time.Time
		for id, cs := range h.clients {
			if cs.sessions == 0 && (oldestID == "" || cs.idleSince.Before(oldest)) {
				oldestID, oldest = id, cs.idleSince
			}
		}
		if oldestID == "" {
			return
		}
		delete(h.clients, oldestID)
	}
}

// hostOrigin is the reserved clientID for ops the host itself commits
// (style checkpoints). Sessions may not attach under it.
const hostOrigin = ":host"

// Host serves one shared document.
type Host struct {
	name  string
	opts  HostOptions
	epoch uint64
	start time.Time

	mu       sync.Mutex
	doc      *text.Data
	df       *persist.DocFile // nil for a memory-only host
	seq      uint64
	hist     []committedOp // trailing window; hist[len-1].seq == seq
	sessions map[*session]struct{}
	clients  map[string]*clientState
	nextSID  uint64
	closed   bool
	// draining rejects new attaches and drops op groups from the drain's
	// bye on, so the bye is the last frame every session gets (see
	// commitGroup).
	draining bool
	// fsys is where the host-state sidecar goes on drain; set by
	// OpenHostFile, nil for memory-only hosts.
	fsys persist.FS
	// snapFrames caches the encoded snapr frames for the state at snapSeq,
	// so a burst of joins costs one document encode, not one per session.
	snapFrames []*frameBuf
	snapSeq    uint64
	// encScratch is the reusable logical-line build buffer (see frame.go).
	encScratch []byte
	// attachGate, when set, runs in attach's unlocked encode window (test
	// hook proving commits stay live during a large attach).
	attachGate func()

	// Counters under mu.
	opsApplied          uint64
	opsTransformedAway  uint64
	broadcasts          uint64
	fanoutFrames        uint64
	slowKicks           uint64
	protoErrors         uint64
	snapResyncs         uint64
	snapChunks          uint64
	opResyncs           uint64
	journalErrors       uint64
	styleCheckpoints    uint64
	tableOps            uint64
	embedOps            uint64
	unjournalableResets uint64

	// Fan-out lag, updated by session writer goroutines (atomics).
	lagSum   atomic.Int64 // nanoseconds
	lagCount atomic.Int64
	lagMax   atomic.Int64
}

// NewHost wraps doc (which the host now owns: nothing else may mutate it)
// as a served document with no backing file.
func NewHost(name string, doc *text.Data, opts HostOptions) *Host {
	return &Host{
		name:     name,
		opts:     opts.withDefaults(),
		epoch:    rand.Uint64() | 1, // never zero, never reused across restarts in practice
		start:    time.Now(),
		doc:      doc,
		sessions: map[*session]struct{}{},
		clients:  map[string]*clientState{},
	}
}

// OpenHostFile opens (creating if absent) the document at path through the
// crash-safe persist layer and serves it: a leftover journal from a
// crashed server is replayed, then a fresh journal records every op the
// host commits, in commit order — the journal IS the replication log.
func OpenHostFile(fsys persist.FS, path string, reg *class.Registry, opts HostOptions) (*Host, error) {
	if !persist.Exists(fsys, path) {
		if err := persist.SaveDocument(fsys, path, text.New()); err != nil {
			return nil, fmt.Errorf("docserve: creating %s: %w", path, err)
		}
	}
	df, err := persist.Load(fsys, path, reg, datastream.Strict)
	if err != nil {
		return nil, err
	}
	if err := df.StartJournalDetached(); err != nil {
		return nil, err
	}
	h := NewHost(path, df.Doc, opts)
	h.df = df
	h.fsys = fsys
	// A graceful drain leaves a host-state sidecar beside the file; adopt
	// it (same epoch, same seq, same dedup state) so drained clients
	// resume instead of resyncing.
	h.adoptState(fsys, path)
	return h, nil
}

// Name returns the host's document name.
func (h *Host) Name() string { return h.name }

// RecoveryDiags surfaces the persist layer's recovery report (what a
// crashed predecessor left behind), empty for memory-only hosts.
func (h *Host) RecoveryDiags() []string {
	if h.df == nil {
		return nil
	}
	return h.df.RecoveryDiags
}

// Snapshot returns the document's current external representation and the
// op seq it reflects.
func (h *Host) Snapshot() ([]byte, uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b, err := persist.EncodeDocument(h.doc)
	return b, h.seq, err
}

// DocString returns the served document's text (test and tooling aid).
func (h *Host) DocString() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.doc.String()
}

// SyncNow makes journaled ops durable; if the journal latched an error it
// checkpoints by atomically saving the whole document instead. This is the
// server's idle/periodic autosave step.
func (h *Host) SyncNow() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.df == nil {
		return nil
	}
	return h.df.Sync()
}

// Checkpoint atomically saves the document and rotates the journal.
func (h *Host) Checkpoint() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.df == nil {
		return nil
	}
	return h.df.Save()
}

// Close disconnects every session and, for a file-backed host, saves the
// document and discards the journal — a clean shutdown, like an editor
// exiting after a save.
func (h *Host) Close() error {
	h.mu.Lock()
	h.closed = true
	for s := range h.sessions {
		h.killLocked(s, "server shutting down", false)
	}
	releaseFrames(h.snapFrames)
	h.snapFrames = nil
	df := h.df
	h.mu.Unlock()
	if df == nil {
		return nil
	}
	if err := df.Save(); err != nil {
		df.Close()
		return err
	}
	return df.Close()
}

// commitGroup is the ordering point: it rebases one client op group onto
// the authoritative log, applies it, journals it, fans it out, and acks
// the originator. Any protocol violation kills the session.
func (h *Host) commitGroup(s *session, g opGroupMsg) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.sessions[s]; !ok || h.draining {
		// The session died (or was superseded by its client's next one, or
		// by Close saving the document) while this group was read, or a
		// drain already said bye. Committing it now would fan it out behind
		// the client's back, or behind the bye, where a client healing on
		// the bye never reads it and resumes behind the restarted host,
		// which keeps no op history to replay. The client still holds the
		// group and re-sends it after it resumes.
		return
	}
	cs := h.clients[s.clientID]
	hadRuns := len(h.doc.Runs()) > 0

	// Idempotence: a group re-sent after a lost ack is answered from the
	// retained ack, never re-applied. An unseeded identity (first contact,
	// or dedup state pruned while it was away) adopts its first group's
	// clientSeq instead of demanding 1, so pruning never strands an honest
	// client mid-count.
	if cs.seeded {
		if g.clientSeq <= cs.lastSeq {
			if r, ok := cs.acks[g.clientSeq]; ok {
				h.sendAckLocked(s, g.clientSeq, r.n, r.hi)
				return
			}
			h.failLocked(s, "duplicate op older than the dedup window")
			return
		}
		if g.clientSeq != cs.lastSeq+1 {
			h.failLocked(s, fmt.Sprintf("op sequence gap: got %d want %d", g.clientSeq, cs.lastSeq+1))
			return
		}
	} else if g.clientSeq == 0 {
		h.failLocked(s, "op group seq 0")
		return
	}
	if g.baseSeq > h.seq {
		h.failLocked(s, "op based on a future server seq")
		return
	}

	// Decode the group through the op registry: bare records are text
	// edits, tagged `t <kind> …` frames are table or embed ops.
	group := make([]ops.Op, 0, len(g.payloads))
	for _, p := range g.payloads {
		op, err := ops.Decode(p)
		if err != nil {
			h.failLocked(s, err.Error())
			return
		}
		if _, isReset := ops.IsReset(op); isReset {
			// A well-behaved client never ships a reset marker — it
			// surfaces the fallback locally instead. Count it so the SLO
			// layer can assert the op model kept every edit expressible.
			h.unjournalableResets++
			h.failLocked(s, "unjournalable edit cannot be replicated")
			return
		}
		group = append(group, op)
	}

	// Rebase across everything committed since the client's base. The
	// single-in-flight-group discipline guarantees those are all foreign
	// ops (the client's own earlier ops are <= its acked base).
	bridge, ok := h.bridgeLocked(s, g.baseSeq)
	if !ok {
		return
	}
	group, _ = ops.XformDual(group, bridge, true)

	// Apply, journal, and coalesce the whole group into one outbound wire
	// buffer. The originator is excluded from its own ops' fan-out (it
	// learns of them via the ack), so the shared frame's audience is the
	// same for every op in the group — one encode, one queue slot, one
	// socket write per receiving session, however many ops committed.
	var fan *frameBuf
	n := 0
	groupHasText, groupHasStyle := false, false
	for _, op := range group {
		if err := ops.Apply(h.doc, op); err != nil {
			// The transform guarantees applicability for honest clients; a
			// record that still fails is hostile or corrupt. Everything
			// already applied is committed — fan it out and ack it before
			// killing the session.
			h.flushFanLocked(s, fan, n)
			h.recordAckLocked(cs, g.clientSeq, n, h.seq)
			h.sendAckLocked(s, g.clientSeq, n, h.seq)
			h.failLocked(s, fmt.Sprintf("inapplicable op after rebase: %v", err))
			return
		}
		h.seq++
		n++
		switch op.Kind {
		case ops.KindText:
			groupHasText = true
			groupHasStyle = groupHasStyle || op.Text.Kind == text.RecStyle
		case ops.KindTable:
			// Table ops move no text positions and touch no style runs:
			// they can never desynchronize run boundaries, so a table-only
			// group commits without a style checkpoint.
			h.tableOps++
		case ops.KindEmbed:
			// An embed op splices one anchor rune into the rune sequence,
			// so it perturbs style runs exactly like a text insert does.
			h.embedOps++
			groupHasText = true
		}
		wire := ops.MustEncode(op)
		h.hist = append(h.hist, committedOp{seq: h.seq, clientID: s.clientID, clientSeq: g.clientSeq, wire: wire})
		if over := len(h.hist) - h.opts.historyLimit; over > 0 {
			h.hist = h.hist[over:]
		}
		if h.df != nil {
			if err := h.df.AppendRecord(wire); err != nil {
				h.journalErrors++
			}
		}
		if fan == nil {
			fan = getFrame()
		}
		h.frameLineLocked(fan, appendCommitted(h.lineScratch(), h.seq, s.clientID, g.clientSeq, wire))
	}
	h.opsApplied += uint64(n)
	if n == 0 {
		h.opsTransformedAway++
	}
	hi := h.seq // the ack's hi: the group's ops, not the checkpoint below

	// Style-run growth is state-dependent (text typed strictly inside a
	// run joins it), so two replicas that applied the same ops in
	// different transform orders can disagree about run boundaries even
	// though their text is identical — no state-free record transform can
	// close that gap. The host is the authority: after any commit that
	// touched styled text it republishes its complete run list as a
	// committed op of its own. Style records are wholesale last-writer-
	// wins, so the checkpoint lands last on every replica and pins the
	// runs to the server's exactly. It rides the group's fan frame for the
	// other sessions and follows the ack in the originator's frame, where
	// it arrives as the eagerly-applied foreign op at hi+1. A group with
	// style records needs one even when the host ends up with no runs: the
	// originator applied those records in its own order, and an insert it
	// typed inside a run it had just styled may have grown that run there
	// while the same insert lands at the run's edge here.
	ckWire := ""
	var ckSeq uint64
	if n > 0 && groupHasText && (hadRuns || groupHasStyle || len(h.doc.Runs()) > 0) {
		ckSeq, ckWire = h.commitStyleCheckpointLocked()
		if fan == nil {
			fan = getFrame()
		}
		h.frameLineLocked(fan, appendCommitted(h.lineScratch(), ckSeq, hostOrigin, 0, ckWire))
	}
	h.flushFanLocked(s, fan, n+btoi(ckWire != ""))

	af := getFrame()
	h.frameLineLocked(af, appendAck(h.lineScratch(), g.clientSeq, n, hi))
	if ckWire != "" {
		h.frameLineLocked(af, appendCommitted(h.lineScratch(), ckSeq, hostOrigin, 0, ckWire))
		h.broadcasts++
	}
	h.recordAckLocked(cs, g.clientSeq, n, hi)
	h.enqueueDataLocked(s, af, time.Now())
	af.release()

	// Any commit invalidates the cached snapshot; drop it now rather than
	// pinning a stale document encoding until the next join.
	if len(h.snapFrames) > 0 && h.snapSeq != h.seq {
		releaseFrames(h.snapFrames)
		h.snapFrames = nil
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// flushFanLocked enqueues the group's shared wire buffer to every
// session except the originator and drops the
// creator's reference. nops is how many committed ops the buffer carries
// (for the Broadcasts counter, which predates coalescing and counts
// op-deliveries, not frames).
func (h *Host) flushFanLocked(origin *session, fan *frameBuf, nops int) {
	if fan == nil {
		return
	}
	now := time.Now()
	for other := range h.sessions {
		if other == origin {
			continue
		}
		h.enqueueDataLocked(other, fan, now)
		h.broadcasts += uint64(nops)
	}
	h.fanoutFrames++
	fan.release()
}

// commitStyleCheckpointLocked commits the host's current run list as an
// op of its own and returns it for the caller to fan out (it must reach
// every session, originator included).
func (h *Host) commitStyleCheckpointLocked() (seq uint64, wire string) {
	rec := text.EditRecord{Kind: text.RecStyle, Runs: append([]text.Run(nil), h.doc.Runs()...)}
	h.seq++
	wire = text.EncodeRecord(rec)
	h.hist = append(h.hist, committedOp{seq: h.seq, clientID: hostOrigin, wire: wire})
	if over := len(h.hist) - h.opts.historyLimit; over > 0 {
		h.hist = h.hist[over:]
	}
	if h.df != nil {
		if err := h.df.AppendRecord(wire); err != nil {
			h.journalErrors++
		}
	}
	h.styleCheckpoints++
	return h.seq, wire
}

// recordAckLocked retains the ack for a committed group so a re-send
// after a lost ack is answered from memory.
func (h *Host) recordAckLocked(cs *clientState, clientSeq uint64, n int, hi uint64) {
	cs.seeded = true
	cs.lastSeq = clientSeq
	cs.acks[clientSeq] = ackRange{n: n, hi: hi}
	for k := range cs.acks {
		if k+ackRetain < clientSeq {
			delete(cs.acks, k)
		}
	}
}

// sendAckLocked queues one ack frame for s: the dedup answer and the
// error path (the happy path coalesces the ack with the style checkpoint).
func (h *Host) sendAckLocked(s *session, clientSeq uint64, n int, hi uint64) {
	fb := getFrame()
	h.frameLineLocked(fb, appendAck(h.lineScratch(), clientSeq, n, hi))
	h.enqueueDataLocked(s, fb, time.Now())
	fb.release()
}

// bridgeLocked collects the committed ops with seq > baseSeq, decoded, for
// rebasing an incoming group. It fails the session if the window no longer
// reaches baseSeq (resync required) or if it would cross the client's own
// ops (a protocol violation of the one-in-flight discipline).
func (h *Host) bridgeLocked(s *session, baseSeq uint64) ([]ops.Op, bool) {
	if baseSeq == h.seq {
		return nil, true
	}
	if len(h.hist) == 0 || h.hist[0].seq > baseSeq+1 {
		h.failLocked(s, "base seq fell out of the resync window; reconnect")
		return nil, false
	}
	var bridge []ops.Op
	for _, op := range h.hist {
		if op.seq <= baseSeq {
			continue
		}
		if op.clientID == s.clientID {
			h.failLocked(s, "op overlaps the client's own committed ops")
			return nil, false
		}
		dec, err := ops.Decode(op.wire)
		if err != nil {
			h.failLocked(s, "internal: undecodable history record")
			return nil, false
		}
		bridge = append(bridge, dec)
	}
	return bridge, true
}

// Stats is a point-in-time metrics snapshot of one served document.
type Stats struct {
	Name     string
	Sessions int
	// TrackedClients is how many client identities' dedup state the host
	// currently retains (live sessions plus recently disconnected).
	TrackedClients int
	// Seq is the authoritative op count (the replication log position).
	Seq        uint64
	OpsApplied uint64
	// OpsTransformedAway counts client groups that rebased to nothing.
	OpsTransformedAway uint64
	// Broadcasts counts op deliveries enqueued for fan-out (one per
	// committed op per receiving session).
	Broadcasts uint64
	// FanoutFrames counts the coalesced wire buffers those deliveries
	// rode in — Broadcasts/FanoutFrames is the coalescing ratio.
	FanoutFrames uint64
	// SlowConsumerKicks counts sessions disconnected because their
	// outbound queue overflowed or a write timed out.
	SlowConsumerKicks uint64
	ProtocolErrors    uint64
	SnapResyncs       uint64
	// SnapChunks counts the snapr frames staged for snapshot attaches that
	// needed more than one frame (zero while every served document fits
	// one frame).
	SnapChunks    uint64
	OpResyncs     uint64
	JournalErrors uint64
	// StyleCheckpoints counts host-committed wholesale run republications.
	StyleCheckpoints uint64
	// TableOps / EmbedOps count committed non-text ops by kind.
	TableOps uint64
	EmbedOps uint64
	// UnjournalableResets counts groups rejected because a client shipped
	// a reset marker — an edit the op model cannot express. A healthy
	// deployment holds this at zero; the SLO gates assert it.
	UnjournalableResets uint64
	// QueueDepthMax is the deepest current outbound queue.
	QueueDepthMax int
	// FanoutLagAvg/Max measure enqueue-to-write latency of fan-out frames.
	FanoutLagAvg time.Duration
	FanoutLagMax time.Duration
	Uptime       time.Duration
	// OpsPerSec is OpsApplied smoothed over uptime.
	OpsPerSec float64
}

// Stats snapshots the host's metrics surface.
func (h *Host) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := Stats{
		Name:                h.name,
		Sessions:            len(h.sessions),
		TrackedClients:      len(h.clients),
		Seq:                 h.seq,
		OpsApplied:          h.opsApplied,
		OpsTransformedAway:  h.opsTransformedAway,
		Broadcasts:          h.broadcasts,
		FanoutFrames:        h.fanoutFrames,
		SlowConsumerKicks:   h.slowKicks,
		ProtocolErrors:      h.protoErrors,
		SnapResyncs:         h.snapResyncs,
		SnapChunks:          h.snapChunks,
		OpResyncs:           h.opResyncs,
		JournalErrors:       h.journalErrors,
		StyleCheckpoints:    h.styleCheckpoints,
		TableOps:            h.tableOps,
		EmbedOps:            h.embedOps,
		UnjournalableResets: h.unjournalableResets,
		Uptime:              time.Since(h.start),
	}
	for s := range h.sessions {
		if d := len(s.out); d > st.QueueDepthMax {
			st.QueueDepthMax = d
		}
	}
	if c := h.lagCount.Load(); c > 0 {
		st.FanoutLagAvg = time.Duration(h.lagSum.Load() / c)
	}
	st.FanoutLagMax = time.Duration(h.lagMax.Load())
	if secs := st.Uptime.Seconds(); secs > 0 {
		st.OpsPerSec = float64(st.OpsApplied) / secs
	}
	return st
}

// LagWindow returns the fan-out lag accumulated since the previous call
// (or since the host started) and resets the accumulators, so a caller
// can measure enqueue-to-write latency per phase of a fault scenario
// rather than only since boot. The three counters are reset one atomic
// at a time; a concurrent flush may land between them, which skews a
// window by at most one frame — fine for statistics.
func (h *Host) LagWindow() (avg, max time.Duration, count int64) {
	count = h.lagCount.Swap(0)
	sum := h.lagSum.Swap(0)
	max = time.Duration(h.lagMax.Swap(0))
	if count > 0 {
		avg = time.Duration(sum / count)
	}
	return avg, max, count
}

func (h *Host) noteLag(d time.Duration) {
	n := int64(d)
	h.lagSum.Add(n)
	h.lagCount.Add(1)
	for {
		old := h.lagMax.Load()
		if n <= old || h.lagMax.CompareAndSwap(old, n) {
			return
		}
	}
}
