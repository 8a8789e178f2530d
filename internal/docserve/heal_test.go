package docserve

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"atk/internal/persist"
)

// pipeDialer returns a Dial that opens a fresh in-process pipe to
// whatever server the pointer currently holds — tests swap it to stand
// in for a restarted host.
func pipeDialer(mu *sync.Mutex, srv **Server) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		mu.Lock()
		s := *srv
		mu.Unlock()
		cEnd, sEnd := net.Pipe()
		go s.HandleConn(sEnd)
		return cEnd, nil
	}
}

// healClient connects a self-healing client to srv with fast, seeded
// backoff so tests are quick and replayable.
func healClient(t *testing.T, mu *sync.Mutex, srv **Server, doc, id string, extra func(*ClientOptions)) *Client {
	t.Helper()
	opts := ClientOptions{
		ClientID:    id,
		Registry:    testReg(t),
		Dial:        pipeDialer(mu, srv),
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		BackoffSeed: testSeed(t, 7),
	}
	if extra != nil {
		extra(&opts)
	}
	cEnd, sEnd := net.Pipe()
	mu.Lock()
	s := *srv
	mu.Unlock()
	go s.HandleConn(sEnd)
	c, err := Connect(cEnd, doc, opts)
	if err != nil {
		t.Fatalf("connect %s: %v", id, err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// waitState pumps the client until it reaches want or the deadline hits.
func waitState(t *testing.T, c *Client, want ConnState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("state %s never reached %s (err %v)", c.State(), want, c.Err())
		}
		if err := c.PumpWait(5 * time.Millisecond); err != nil && want != StateFailed {
			t.Fatalf("pump while waiting for %s: %v", want, err)
		}
	}
}

// waitReconnect pumps until the client has resumed n times and is back
// to Connected. (Waiting on the counter, not the state, is immune to the
// window before the client has even noticed the loss.)
func waitReconnect(t *testing.T, c *Client, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Reconnects() < n || c.State() != StateConnected {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d reconnects: state %s, %d reconnects, err %v",
				n, c.State(), c.Reconnects(), c.Err())
		}
		if err := c.PumpWait(5 * time.Millisecond); err != nil {
			t.Fatalf("pump while waiting for reconnect: %v", err)
		}
	}
}

// TestBackoffDeterministicSchedule pins the redial schedule: a pure
// function of (seed, base, cap, attempt), full jitter never above the
// exponential ceiling and never above the cap.
func TestBackoffDeterministicSchedule(t *testing.T) {
	const (
		base = 10 * time.Millisecond
		cap  = 80 * time.Millisecond
	)
	schedule := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		var out []time.Duration
		for a := 1; a <= 10; a++ {
			out = append(out, backoffDelay(rng, base, cap, a))
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at attempt %d: %v vs %v", i+1, a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for a := 1; a <= 40; a++ {
		ceil := base << (a - 1)
		if a > 3 || ceil > cap { // 10<<3 = 80 = cap
			ceil = cap
		}
		for k := 0; k < 50; k++ {
			d := backoffDelay(rng, base, cap, a)
			if d < 0 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", a, d, ceil)
			}
		}
	}
	if d := backoffDelay(rng, 0, cap, 3); d != 0 {
		t.Fatalf("zero base gave %v", d)
	}
	if d := backoffDelay(rng, base, cap, 0); d != 0 {
		t.Fatalf("attempt 0 gave %v", d)
	}
	// A doubling run long enough to overflow must clamp at the cap, not
	// wrap negative.
	if d := backoffDelay(rng, time.Hour, 0, 60); d < 0 {
		t.Fatalf("overflowed ceiling gave negative delay %v", d)
	}
}

// TestAutoResumeAfterCut is the tentpole's happy path: the connection
// dies mid-session, the supervisor redials on its own, and edits made
// while disconnected land after the automatic resume.
func TestAutoResumeAfterCut(t *testing.T) {
	h := NewHost("auto.d", newDoc(t, "base\n"), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	var mu sync.Mutex
	var states []ConnState
	c := healClient(t, &mu, &srv, "auto.d", "auto", func(o *ClientOptions) {
		o.OnState = func(s ConnState, err error) { states = append(states, s) }
	})

	mustInsert(t, c.Doc(), 0, "first ")
	if err := c.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	_ = c.conn.Close()
	mustInsert(t, c.Doc(), 0, "second ")
	waitReconnect(t, c, 1)
	convergeAll(t, h, c)
	if got := h.DocString(); got != "second first base\n" {
		t.Fatalf("host doc %q", got)
	}
	// The state machine visited Reconnecting and came back.
	if len(states) < 2 || states[0] != StateReconnecting || states[len(states)-1] != StateConnected {
		t.Fatalf("state transitions %v", states)
	}
	if c.DroppedPending != 0 {
		t.Fatalf("resume dropped %d edits", c.DroppedPending)
	}
}

// TestOfflineFailedStateTransitions walks the degradation ladder: a dial
// that never succeeds demotes Reconnecting to Offline after offlineAfter
// failures and latches Failed when maxAttempts is exhausted.
func TestOfflineFailedStateTransitions(t *testing.T) {
	h := NewHost("down.d", newDoc(t, ""), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	var mu sync.Mutex
	var states []ConnState
	c := healClient(t, &mu, &srv, "down.d", "down", func(o *ClientOptions) {
		o.Dial = func() (net.Conn, error) { return nil, errors.New("host unreachable") }
		o.maxAttempts = 4
		o.offlineAfter = 2
		o.OnState = func(s ConnState, err error) { states = append(states, s) }
	})
	_ = c.conn.Close()
	waitState(t, c, StateFailed)
	want := []ConnState{StateReconnecting, StateOffline, StateFailed}
	if len(states) != len(want) {
		t.Fatalf("state transitions %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state transitions %v, want %v", states, want)
		}
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "gave up after 4 reconnect attempts") {
		t.Fatalf("latched error %v", err)
	}
	// Failed is terminal: pumping keeps returning the give-up error.
	if err := c.Pump(); err == nil {
		t.Fatal("Pump after give-up returned nil")
	}
}

// TestOfflineJournalCrashRecovery proves the durability half of the
// tentpole: edits made while disconnected hit the offline journal with
// their own fsync, survive an editor crash, and replay into the pipeline
// on the next Connect against the unchanged server state.
func TestOfflineJournalCrashRecovery(t *testing.T) {
	fs := persist.NewMemFS()
	const jpath = "ez-offline.crash.journal"
	h := NewHost("crash.d", newDoc(t, "base\n"), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	var mu sync.Mutex
	c := healClient(t, &mu, &srv, "crash.d", "crasher", func(o *ClientOptions) {
		o.Dial = func() (net.Conn, error) { return nil, errors.New("still down") }
		o.maxAttempts = 2
		o.OfflineFS = fs
		o.OfflinePath = jpath
	})

	// Lose the connection before anything is pending: the journal must
	// protect exactly the edits typed during the outage.
	_ = c.conn.Close()
	_ = c.Pump() // notice the loss, open the journal
	mustInsert(t, c.Doc(), 0, "typed offline\n")
	mustInsert(t, c.Doc(), 0, "more offline\n")
	waitState(t, c, StateFailed)
	if !persist.Exists(fs, jpath) {
		t.Fatal("offline journal missing while edits are pending")
	}
	if p, n, err := c.FlushOffline(); err != nil || p != jpath || n != 2 {
		t.Fatalf("FlushOffline = (%q, %d, %v), want (%q, 2, nil)", p, n, err, jpath)
	}
	// The editor "crashes" here: no Close, no Save — c is simply abandoned
	// (its supervisor already gave up) and only the journal survives.

	c2 := healClient(t, &mu, &srv, "crash.d", "crasher", func(o *ClientOptions) {
		o.OfflineFS = fs
		o.OfflinePath = jpath
	})
	if c2.OfflineRecovered != 2 {
		t.Fatalf("OfflineRecovered = %d, want 2", c2.OfflineRecovered)
	}
	if got := c2.Doc().String(); got != "more offline\ntyped offline\nbase\n" {
		t.Fatalf("recovered replica %q", got)
	}
	convergeAll(t, h, c2)
	if got := h.DocString(); got != "more offline\ntyped offline\nbase\n" {
		t.Fatalf("host doc %q", got)
	}
	// Everything confirmed: the journal has nothing left to protect.
	if persist.Exists(fs, jpath) {
		t.Fatal("offline journal survived full confirmation")
	}
}

// TestOfflineJournalStaleSetAside: a journal written against server
// state the server has since moved past cannot be replayed (the records
// are positional); it is set aside as .stale, never silently dropped and
// never blindly applied.
func TestOfflineJournalStaleSetAside(t *testing.T) {
	fs := persist.NewMemFS()
	const jpath = "ez-offline.stale.journal"
	h := NewHost("stale.d", newDoc(t, "base\n"), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	var mu sync.Mutex
	c := healClient(t, &mu, &srv, "stale.d", "crasher", func(o *ClientOptions) {
		o.Dial = func() (net.Conn, error) { return nil, errors.New("still down") }
		o.maxAttempts = 1
		o.OfflineFS = fs
		o.OfflinePath = jpath
	})
	_ = c.conn.Close()
	_ = c.Pump()
	mustInsert(t, c.Doc(), 0, "GHOST ")
	waitState(t, c, StateFailed)

	// The world moves on while the crashed editor is gone.
	other := pipeClient(t, srv, "stale.d", "other", testReg(t))
	mustInsert(t, other.Doc(), 0, "newer ")
	if err := other.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	c2 := healClient(t, &mu, &srv, "stale.d", "crasher", func(o *ClientOptions) {
		o.OfflineFS = fs
		o.OfflinePath = jpath
	})
	if c2.OfflineRecovered != 0 {
		t.Fatalf("stale journal replayed %d edits", c2.OfflineRecovered)
	}
	if got := c2.Doc().String(); strings.Contains(got, "GHOST") {
		t.Fatalf("stale edit applied over the wrong base: %q", got)
	}
	if persist.Exists(fs, jpath) {
		t.Fatal("stale journal left in place to be truncated later")
	}
	if !persist.Exists(fs, jpath+".stale") {
		t.Fatal("stale journal not preserved for hand recovery")
	}
}

// TestDrainRestartAdoptsState is the drain tentpole at unit level: a
// drained host writes the host-state sidecar, a host reopened on the
// same files adopts the same epoch and seq, and a self-healing client
// resumes across the restart without losing its offline edit.
func TestDrainRestartAdoptsState(t *testing.T) {
	fs := persist.NewMemFS()
	reg := testReg(t)
	const path = "drain.d"
	h1, err := OpenHostFile(fs, path, reg, HostOptions{DrainRetryAfter: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(HostOptions{})
	srv1.AddHost(h1)
	var mu sync.Mutex
	srv := srv1
	var causes []error
	c := healClient(t, &mu, &srv, path, "edit", func(o *ClientOptions) {
		o.OnState = func(s ConnState, err error) { causes = append(causes, err) }
	})
	mustInsert(t, c.Doc(), 0, "saved\n")
	if err := c.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	seq1 := h1.Stats().Seq

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !persist.Exists(fs, HostStatePath(path)) {
		t.Fatal("drain left no host-state sidecar")
	}

	h2, err := OpenHostFile(fs, path, reg, HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if persist.Exists(fs, HostStatePath(path)) {
		t.Fatal("sidecar not consumed on reopen")
	}
	if h2.epoch != h1.epoch || h2.seq != seq1 {
		t.Fatalf("reopened host epoch/seq %d/%d, drained %d/%d", h2.epoch, h2.seq, h1.epoch, seq1)
	}
	srv2 := NewServer(HostOptions{})
	srv2.AddHost(h2)
	mu.Lock()
	srv = srv2
	mu.Unlock()

	// Pump until the drain bye lands (the background reader delivers it
	// asynchronously), then type while disconnected and ride the resume.
	deadline := time.Now().Add(10 * time.Second)
	for c.State() == StateConnected {
		if time.Now().After(deadline) {
			t.Fatal("client never noticed the drain")
		}
		_ = c.PumpWait(2 * time.Millisecond)
	}
	mustInsert(t, c.Doc(), 0, "offline\n")
	waitReconnect(t, c, 1)
	convergeAll(t, h2, c)
	if got := h2.DocString(); got != "offline\nsaved\n" {
		t.Fatalf("restarted host doc %q", got)
	}
	if c.DroppedPending != 0 {
		t.Fatalf("restart dropped %d edits (snapshot resync instead of resume)", c.DroppedPending)
	}
	if c.Reconnects() < 1 {
		t.Fatal("client never counted a reconnect")
	}
	// The loss was attributed to the server's own drain notice.
	found := false
	for _, err := range causes {
		if err != nil && strings.Contains(err.Error(), "draining") {
			found = true
		}
	}
	if !found {
		t.Fatalf("drain bye never surfaced as a state-change cause: %v", causes)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptStateRejectsTamper: the sidecar's CRC binds it to one exact
// saved document; any mismatch means a fresh epoch, not a half-adopted
// dedup state.
func TestAdoptStateRejectsTamper(t *testing.T) {
	fs := persist.NewMemFS()
	reg := testReg(t)
	const path = "tamper.d"
	h1, err := OpenHostFile(fs, path, reg, HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(HostOptions{})
	srv1.AddHost(h1)
	c := pipeClient(t, srv1, path, "w", reg)
	mustInsert(t, c.Doc(), 0, "content\n")
	if err := c.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	sp := HostStatePath(path)
	recs, err := persist.ReadRecordFile(fs, sp, hostStateMagic)
	if err != nil {
		t.Fatal(err)
	}
	f := strings.Fields(recs[0])
	wrong := "00000000"
	if f[0] == wrong {
		wrong = "00000001"
	}
	tampers := []struct {
		name  string
		write func() error
	}{
		{"document crc no longer matches", func() error {
			bad := append([]string{wrong + " " + f[1] + " " + f[2]}, recs[1:]...)
			return persist.WriteRecordFile(fs, sp, hostStateMagic, bad)
		}},
		{"older hand-parsed format", func() error {
			old := "%atkhost1\ncrc " + f[0] + "\nepoch " + f[1] + "\nseq " + f[2] + "\n"
			return persist.AtomicWrite(fs, sp, func(w io.Writer) error {
				_, werr := io.WriteString(w, old)
				return werr
			})
		}},
	}
	for _, tc := range tampers {
		if err := tc.write(); err != nil {
			t.Fatal(err)
		}
		h2, err := OpenHostFile(fs, path, reg, HostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if persist.Exists(fs, sp) {
			t.Fatalf("%s: rejected sidecar not removed", tc.name)
		}
		if h2.epoch == h1.epoch {
			t.Fatalf("%s: sidecar adopted: epoch carried over", tc.name)
		}
		if h2.seq != 0 {
			t.Fatalf("%s: sidecar adopted: seq %d", tc.name, h2.seq)
		}
		if err := h2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHostStateSidecarRoundTrip pins the sidecar's records: encode and
// decode are inverses, through the record file, and malformed records
// fail the whole decode.
func TestHostStateSidecarRoundTrip(t *testing.T) {
	h := NewHost("rt.d", newDoc(t, ""), HostOptions{})
	h.epoch = 77
	h.seq = 1234
	h.clients["alice"] = &clientState{
		seeded:  true,
		lastSeq: 42,
		acks:    map[uint64]ackRange{40: {n: 2, hi: 1230}, 42: {n: 1, hi: 1234}},
	}
	h.clients["bob"] = &clientState{acks: map[uint64]ackRange{}}
	fs := persist.NewMemFS()
	if err := persist.WriteRecordFile(fs, "rt.d.host", hostStateMagic, h.hostStateLocked(0xdeadbeef)); err != nil {
		t.Fatal(err)
	}
	recs, err := persist.ReadRecordFile(fs, "rt.d.host", hostStateMagic)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeHostState(recs)
	if err != nil {
		t.Fatalf("decode: %v\n%q", err, recs)
	}
	if st.crc != 0xdeadbeef || st.epoch != 77 || st.seq != 1234 {
		t.Fatalf("decoded header %+v", st)
	}
	a := st.clients["alice"]
	if a == nil || !a.seeded || a.lastSeq != 42 || len(a.acks) != 2 ||
		a.acks[40] != (ackRange{n: 2, hi: 1230}) || a.acks[42] != (ackRange{n: 1, hi: 1234}) {
		t.Fatalf("decoded alice %+v", a)
	}
	b := st.clients["bob"]
	if b == nil || b.seeded || b.lastSeq != 0 || len(b.acks) != 0 {
		t.Fatalf("decoded bob %+v", b)
	}

	for _, bad := range [][]string{
		nil,
		{"nope 1 1"},
		{"00000001 x 1"},
		{"00000001 1 1 1"},
		{"00000001 1 1", "b@d 1 2"},
		{"00000001 1 1", "a 7 2"},
		{"00000001 1 1", "a 1"},
		{"00000001 1 1", "a 1 2 3:4"},
		{"00000001 1 1", "a 1 2 3:-4:5"},
	} {
		if _, err := decodeHostState(bad); err == nil {
			t.Fatalf("malformed sidecar accepted: %q", bad)
		}
	}
}

// TestParseBye pins the drain-notice grammar against the legacy kick.
func TestParseBye(t *testing.T) {
	if reason, after, ok := parseBye(encodeBye("draining", 1500*time.Millisecond)); !ok || reason != "draining" || after != 1500*time.Millisecond {
		t.Fatalf("round trip gave (%q, %v, %v)", reason, after, ok)
	}
	for _, bad := range []string{"bye", "bye draining", "bye draining x", "bye draining -5", "nope a 1", "bye a 1 2"} {
		if _, _, ok := parseBye(bad); ok {
			t.Fatalf("parseBye accepted %q", bad)
		}
	}
}
