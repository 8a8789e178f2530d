package main

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"atk/internal/class"
	"atk/internal/docserve"
	"atk/internal/slo/driver"
	"atk/internal/text"
)

// startServer brings up an in-process docserve server with one text
// document and returns its dial spec.
func startServer(t *testing.T, docName string) (*docserve.Host, string) {
	t.Helper()
	reg := class.NewRegistry()
	if err := text.Register(reg); err != nil {
		t.Fatal(err)
	}
	doc := text.New()
	doc.SetRegistry(reg)
	h := docserve.NewHost(docName, doc, docserve.HostOptions{})
	srv := docserve.NewServer(docserve.HostOptions{})
	srv.AddHost(h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return h, "tcp:" + ln.Addr().String()
}

// TestRunAgainstLiveServer drives a short mix against an in-process
// docserve server and checks the JSONL stream: parseable sample lines, a
// closing summary, and nonzero work in every mix dimension.
func TestRunAgainstLiveServer(t *testing.T) {
	h, spec := startServer(t, "load.d")

	var out, log bytes.Buffer
	mix := Mix{Writers: 2, Readers: 3, Churners: 1}
	err := run(spec, "load.d", mix, 600*time.Millisecond, 150*time.Millisecond, &out, &log)
	if err != nil {
		t.Fatalf("run: %v\nlog:\n%s", err, log.String())
	}

	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	var last driver.Sample
	samples := 0
	for dec.More() {
		var rec driver.Sample
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("bad JSONL: %v\n%s", err, out.String())
		}
		if rec.Kind == "sample" {
			samples++
		}
		last = rec
	}
	if samples == 0 {
		t.Fatalf("no sample lines emitted:\n%s", out.String())
	}
	if last.Kind != "summary" {
		t.Fatalf("stream does not end with a summary:\n%s", out.String())
	}
	if last.Commits == 0 || last.Deliveries == 0 || last.Attaches == 0 {
		t.Fatalf("idle mix dimension: %+v", last)
	}
	if last.Errors != 0 {
		t.Fatalf("session errors during run: %+v\nlog:\n%s", last, log.String())
	}
	// The server side agrees work happened and saw no protocol abuse.
	// (SlowConsumerKicks is not checked: a churner hanging up mid-fan-out
	// no longer counts as one, but a reader that falls a whole queue
	// behind, or whose write times out, still may under load.)
	st := h.Stats()
	if st.OpsApplied == 0 || st.ProtocolErrors != 0 {
		t.Fatalf("server stats: %+v", st)
	}
}

// TestRunSampleSchema pins the JSONL output contract downstream tooling
// depends on: every line carries every schema field (decoded generically,
// so an omitempty regression shows up), and ts_unix_ns strictly increases
// line to line.
func TestRunSampleSchema(t *testing.T) {
	_, spec := startServer(t, "schema.d")

	var out, log bytes.Buffer
	mix := Mix{Writers: 1, Readers: 1, Churners: 1}
	if err := run(spec, "schema.d", mix, 500*time.Millisecond, 100*time.Millisecond, &out, &log); err != nil {
		t.Fatalf("run: %v\nlog:\n%s", err, log.String())
	}

	want := []string{
		"kind", "phase", "ts_unix_ns", "elapsed_sec",
		"commits", "deliveries", "attaches", "errors", "resumes",
		"commit_p50_us", "commit_p99_us", "attach_p50_us", "attach_p99_us",
	}
	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	var lastTS float64
	lines := 0
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("bad JSONL: %v\n%s", err, out.String())
		}
		lines++
		for _, k := range want {
			if _, ok := rec[k]; !ok {
				t.Fatalf("line %d missing %q: %v", lines, k, rec)
			}
		}
		ts, ok := rec["ts_unix_ns"].(float64)
		if !ok {
			t.Fatalf("line %d ts_unix_ns is %T, want number", lines, rec["ts_unix_ns"])
		}
		if ts <= lastTS {
			t.Fatalf("line %d timestamp %v not after previous %v", lines, ts, lastTS)
		}
		lastTS = ts
	}
	if lines < 2 {
		t.Fatalf("want at least one sample plus the summary, got %d lines:\n%s", lines, out.String())
	}
}

// TestRunRateCapBoundsLoad pins that -rate actually caps offered load: on
// a zero-latency loopback an uncapped writer commits thousands of ops per
// second, so a capped run landing near rate*duration proves the ticker
// gates each commit.
func TestRunRateCapBoundsLoad(t *testing.T) {
	_, spec := startServer(t, "rate.d")

	var out, log bytes.Buffer
	const (
		rate = 20.0
		dur  = 600 * time.Millisecond
	)
	mix := Mix{Writers: 1, Rate: rate}
	if err := run(spec, "rate.d", mix, dur, 200*time.Millisecond, &out, &log); err != nil {
		t.Fatalf("run: %v\nlog:\n%s", err, log.String())
	}

	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	var last driver.Sample
	for dec.More() {
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("bad JSONL: %v\n%s", err, out.String())
		}
	}
	if last.Kind != "summary" {
		t.Fatalf("stream does not end with a summary:\n%s", out.String())
	}
	if last.Commits == 0 {
		t.Fatal("capped writer committed nothing")
	}
	// Generous ceiling (2x the nominal budget plus slack for the first
	// immediate tick) — still far below what an uncapped writer does.
	maxCommits := uint64(2*rate*dur.Seconds()) + 4
	if last.Commits > maxCommits {
		t.Fatalf("rate cap leaked: %d commits in %v at %v/s cap (ceiling %d)",
			last.Commits, dur, rate, maxCommits)
	}
}

// TestRunRejectsBadTargets pins the fail-fast paths: an empty mix, a bad
// dial spec, and an unknown document all fail before spawning sessions.
func TestRunRejectsBadTargets(t *testing.T) {
	var out, log bytes.Buffer
	if err := run("tcp:127.0.0.1:1", "d", Mix{}, time.Second, time.Second, &out, &log); err == nil {
		t.Fatal("empty mix accepted")
	}
	if err := run("garbage", "d", Mix{Writers: 1}, time.Second, time.Second, &out, &log); err == nil {
		t.Fatal("bad connect spec accepted")
	}

	srv := docserve.NewServer(docserve.HostOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	err = run("tcp:"+ln.Addr().String(), "no-such-doc", Mix{Writers: 1},
		time.Second, time.Second, &out, &log)
	if err == nil {
		t.Fatal("unknown document accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("failed probe still emitted samples:\n%s", out.String())
	}
}
