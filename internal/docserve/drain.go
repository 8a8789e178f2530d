package docserve

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"atk/internal/persist"
)

// Graceful drain. A SIGTERM'd host does not just vanish: it stops
// accepting, tells every session it is leaving and when to come back
// ("bye <reason> <retry-after-ms>" on the control headroom), lets the
// outbound queues flush, saves the document, and writes a one-shot
// host-state sidecar (epoch, seq, per-client dedup state, all bound to
// the saved bytes by CRC). A host restarted on the same file adopts the
// sidecar, so self-healing clients resume into the same epoch at the
// same seq — the cheap op-replay path, in-flight groups answered
// idempotently — instead of a snapshot resync that would drop their
// unconfirmed work.

// drainPoll is how often Drain re-checks the outbound queues while
// waiting for them to flush.
const drainPoll = 2 * time.Millisecond

// Drain performs a graceful shutdown of one host: broadcast the bye,
// flush session queues (bounded by ctx), disconnect, save, and write the
// host-state sidecar. The host is closed afterwards; Close remains safe
// to call and does nothing more.
func (h *Host) Drain(ctx context.Context) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	if !h.draining {
		h.draining = true
		fb := getFrame()
		fb.appendLine(encodeBye("draining", h.opts.DrainRetryAfter))
		now := time.Now()
		for s := range h.sessions {
			_ = h.enqueueControlLocked(s, fb, now)
		}
		fb.release()
	}
	h.mu.Unlock()

	// Let the queues flush: every session either writes its backlog (the
	// bye last) or dies trying, and a session the client hangs up on drops
	// out of the registry. Bounded by ctx — a wedged peer must not hold
	// the whole shutdown hostage.
	for {
		h.mu.Lock()
		pending := false
		for s := range h.sessions {
			if len(s.out) > 0 {
				pending = true
				break
			}
		}
		h.mu.Unlock()
		if !pending {
			break
		}
		exp := false
		select {
		case <-ctx.Done():
			exp = true
		case <-time.After(drainPoll):
		}
		if exp {
			break
		}
	}

	h.mu.Lock()
	for s := range h.sessions {
		h.killLocked(s, "server draining", false)
	}
	h.closed = true
	releaseFrames(h.snapFrames)
	h.snapFrames = nil
	df := h.df
	h.df = nil
	h.mu.Unlock()
	if df == nil {
		return nil
	}
	if err := df.Save(); err != nil {
		_ = df.Close()
		return err
	}
	var first error
	if h.fsys != nil {
		// The sidecar binds the epoch/seq/client state to the CRC of the
		// bytes the save wrote. Both describe the same instant: since the
		// bye, commitGroup refuses every group and attach every session,
		// so neither the document nor that state has changed since the
		// lock was released.
		h.mu.Lock()
		state := h.hostStateLocked(df.FileCRC())
		h.mu.Unlock()
		first = persist.WriteRecordFile(h.fsys, HostStatePath(h.name), hostStateMagic, state)
	}
	if err := df.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// HostStatePath is where a drained host parks its resume state beside
// the document file.
func HostStatePath(path string) string { return path + ".host" }

// hostStateMagic heads the sidecar, a persist CRC record file read
// strictly: any damage or unknown magic (a sidecar from an older format
// included) means it is ignored, never "partially adopted".
const hostStateMagic = "%atkhost2"

// hostState is the decoded sidecar.
type hostState struct {
	crc     uint32
	epoch   uint64
	seq     uint64
	clients map[string]*clientState
}

// hostStateLocked renders the sidecar's records: "<crc> <epoch> <seq>",
// then "<clientID> <seeded> <lastSeq> <clientSeq>:<n>:<hi>..." per client
// identity. Host lock held.
func (h *Host) hostStateLocked(crc uint32) []string {
	recs := []string{fmt.Sprintf("%08x %d %d", crc, h.epoch, h.seq)}
	for id, cs := range h.clients {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %d %d", id, btoi(cs.seeded), cs.lastSeq)
		for k, r := range cs.acks {
			fmt.Fprintf(&b, " %d:%d:%d", k, r.n, r.hi)
		}
		recs = append(recs, b.String())
	}
	return recs
}

// decodeHostState parses the sidecar's records; any malformation fails
// the whole decode (a half-adopted dedup state would be worse than none).
func decodeHostState(recs []string) (*hostState, error) {
	bad := func(rec string) (*hostState, error) {
		return nil, fmt.Errorf("docserve: malformed host-state record %q", rec)
	}
	if len(recs) == 0 {
		return bad("")
	}
	f := strings.Fields(recs[0])
	if len(f) != 3 {
		return bad(recs[0])
	}
	crc, e1 := strconv.ParseUint(f[0], 16, 32)
	epoch, e2 := strconv.ParseUint(f[1], 10, 64)
	seq, e3 := strconv.ParseUint(f[2], 10, 64)
	if e1 != nil || e2 != nil || e3 != nil {
		return bad(recs[0])
	}
	st := &hostState{crc: uint32(crc), epoch: epoch, seq: seq, clients: map[string]*clientState{}}
	for _, rec := range recs[1:] {
		f := strings.Fields(rec)
		if len(f) < 3 || !nameOK(f[0]) || (f[1] != "0" && f[1] != "1") {
			return bad(rec)
		}
		cs := &clientState{seeded: f[1] == "1", acks: map[uint64]ackRange{}}
		var err error
		if cs.lastSeq, err = strconv.ParseUint(f[2], 10, 64); err != nil {
			return bad(rec)
		}
		for _, a := range f[3:] {
			parts := strings.Split(a, ":")
			if len(parts) != 3 {
				return bad(rec)
			}
			k, e1 := strconv.ParseUint(parts[0], 10, 64)
			n, e2 := strconv.Atoi(parts[1])
			hi, e3 := strconv.ParseUint(parts[2], 10, 64)
			if e1 != nil || e2 != nil || e3 != nil || n < 0 {
				return bad(rec)
			}
			cs.acks[k] = ackRange{n: n, hi: hi}
		}
		st.clients[f[0]] = cs
	}
	return st, nil
}

// adoptState resumes a drained predecessor's identity, called by
// OpenHostFile before any session exists. The sidecar is one-shot
// (removed on sight): it describes exactly one saved document state, and
// adopting it against any other — a crash after new commits, a journal
// replay, a hand-edited file — would break the dedup invariants, so the
// CRC of the file's bytes (taken by OpenHostFile's eager load, so it
// covers the whole file) is the admission test and any mismatch means a
// fresh epoch (clients snapshot-resync, which is correct, just costlier).
func (h *Host) adoptState(fsys persist.FS, path string) {
	sp := HostStatePath(path)
	recs, err := persist.ReadRecordFile(fsys, sp, hostStateMagic)
	if persist.IsNotExist(err) {
		return
	}
	_ = fsys.Remove(sp)
	if err != nil || h.df == nil || h.df.Replayed != 0 {
		return // damaged, or committed ops landed after the drain's save
	}
	st, err := decodeHostState(recs)
	if err != nil || st.crc != h.df.FileCRC() {
		return
	}
	h.epoch, h.seq = st.epoch, st.seq
	now := time.Now()
	for id, cs := range st.clients {
		cs.sessions = 0
		cs.idleSince = now
		h.clients[id] = cs
	}
}

// Shutdown drains the server gracefully: stop accepting, drain every
// host (bye broadcast, queue flush, save, host-state sidecar), and wait
// for the connection handlers, all bounded by ctx. The first error is
// returned; the shutdown itself proceeds regardless.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := s.lns
	s.lns = nil
	hosts := make([]*Host, 0, len(s.hosts))
	for _, h := range s.hosts {
		hosts = append(hosts, h)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	var first error
	for _, h := range hosts {
		if err := h.Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if first == nil {
			first = ctx.Err()
		}
	}
	return first
}
