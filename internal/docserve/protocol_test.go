package docserve

import (
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"

	"atk/internal/datastream"
)

// testFrames reads frames from raw wire bytes through the production
// frame reader.
type testFrames struct{ fr *datastream.LineReader }

func readerOf(r io.Reader) testFrames { return testFrames{newFrameReader(r)} }

func (f testFrames) next() (string, error) { return readFrame(f.fr) }

func roundTripFrame(t *testing.T, line string) string {
	t.Helper()
	got, err := readerOf(bytes.NewReader(datastream.AppendEscaped(nil, line))).next()
	if err != nil {
		t.Fatalf("reading back %.40q: %v", line, err)
	}
	return got
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"hello atkdoc1 doc c1",
		"op 1 0 1 7:i 0 abc",
		"a line with\nan embedded newline",
		"unicode: héllo ω€ 日本語",
		"trailing backslash \\",
		"control \x01 bytes \x7f",
		strings.Repeat("long line ", 20000), // wraps many physical lines
		"snapr 1 2 11000 0 " + strings.Repeat("payload\nwith newlines\n", 500),
	}
	for _, c := range cases {
		if got := roundTripFrame(t, c); got != c {
			t.Fatalf("frame round trip mangled %.40q -> %.40q", c, got)
		}
	}
}

func TestFrameSequence(t *testing.T) {
	// Multiple frames through one reader stay delimited, and its scratch
	// reuse never leaks one frame's bytes into the next.
	var wire []byte
	frames := []string{"one", strings.Repeat("two\nlines ", 50), "three"}
	for _, f := range frames {
		wire = datastream.AppendEscaped(wire, f)
	}
	r := readerOf(bytes.NewReader(wire))
	for _, want := range frames {
		got, err := r.next()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("got %q want %q", got, want)
		}
	}
}

func TestReadFrameRejectsOverlongPhysicalLine(t *testing.T) {
	raw := strings.Repeat("x", MaxPhysicalLine+10) + "\n"
	if _, err := readerOf(strings.NewReader(raw)).next(); err == nil {
		t.Fatal("overlong physical line accepted")
	}
}

// endlessReader yields 'x' bytes forever, counting what was consumed: the
// hostile peer that sends a line that never ends.
type endlessReader struct{ consumed int }

func (e *endlessReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	e.consumed += len(p)
	return len(p), nil
}

func TestReadFrameBoundsEndlessLine(t *testing.T) {
	// A stream with no newline at all must abort with errFrameTooLong after
	// consuming O(MaxPhysicalLine) bytes, not buffer until OOM (or spin
	// forever). The old ReadString-based reader buffered the whole "line"
	// before any limit check ran.
	src := &endlessReader{}
	_, err := readerOf(src).next()
	if err == nil {
		t.Fatal("endless line accepted")
	}
	if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("wrong error for endless line: %v", err)
	}
	if max := MaxPhysicalLine + 64*1024; src.consumed > max {
		t.Fatalf("endless line consumed %d bytes before aborting (cap %d)", src.consumed, max)
	}
}

// TestReadFramePhysicalBound: MaxPhysicalLine counts a physical line
// without its newline. A line of exactly the bound is a frame; one byte
// more is errFrameTooLong.
func TestReadFramePhysicalBound(t *testing.T) {
	exact := strings.Repeat("x", MaxPhysicalLine)
	if got, err := readerOf(strings.NewReader(exact + "\n")).next(); err != nil || got != exact {
		t.Fatalf("line of exactly the bound: %d bytes, %v", len(got), err)
	}
	if _, err := readerOf(strings.NewReader(exact + "x\n")).next(); !errors.Is(err, errFrameTooLong) {
		t.Fatalf("line of the bound plus one: %v, want errFrameTooLong", err)
	}
}

// TestReadFrameCutOff: a connection that closes inside a frame, in its
// last physical line or after a continuation, is an error; one that
// closes between frames is io.EOF.
func TestReadFrameCutOff(t *testing.T) {
	for _, raw := range []string{"ping 1", "ping \\\n", "ping \\\n1"} {
		r := readerOf(strings.NewReader(raw))
		if _, err := r.next(); err == nil || err == io.EOF {
			t.Fatalf("frame cut off as %q: %v, want an error other than EOF", raw, err)
		}
	}
	r := readerOf(strings.NewReader("ping 1\n"))
	if _, err := r.next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("close between frames: %v, want EOF", err)
	}
}

func TestReadFrameRejectsBadEscape(t *testing.T) {
	for _, raw := range []string{"bad \\uzz; escape\n", "bad \\q escape\n"} {
		if _, err := readerOf(strings.NewReader(raw)).next(); err == nil {
			t.Fatalf("bad escape %q accepted", raw)
		}
	}
}

func TestParseHello(t *testing.T) {
	h, err := parseHello("hello atkdoc1 notes/todo.d c-1")
	if err != nil || h.doc != "notes/todo.d" || h.clientID != "c-1" || h.resume {
		t.Fatalf("got %+v, %v", h, err)
	}
	h, err = parseHello("hello atkdoc1 d c 42 7")
	if err != nil || !h.resume || h.epoch != 42 || h.since != 7 {
		t.Fatalf("resume hello: got %+v, %v", h, err)
	}
	for _, bad := range []string{
		"hello",
		"hello atkdoc1 d",
		"hello atkdoc0 d c",
		"hello atkdoc1 d c 42",
		"hello atkdoc1 d c 42 7 8",
		"hello atkdoc1 bad name c",
		"hello atkdoc1 d bad\x01id",
		"hi atkdoc1 d c",
		"hello atkdoc1 " + strings.Repeat("d", 300) + " c",
	} {
		if _, err := parseHello(bad); err == nil {
			t.Fatalf("bad hello %q accepted", bad)
		}
	}
}

func TestOpGroupRoundTrip(t *testing.T) {
	payloads := []string{"i 0 hello world", "d 3 2", "s 0 2 bold 2 5 italic", "i 1 text:with:colons"}
	g, err := parseOpGroup(string(appendOpGroup(nil, 9, 41, decodeOps(payloads...))))
	if err != nil {
		t.Fatal(err)
	}
	if g.clientSeq != 9 || g.baseSeq != 41 || len(g.payloads) != len(payloads) {
		t.Fatalf("header mangled: %+v", g)
	}
	for i := range payloads {
		if g.payloads[i] != payloads[i] {
			t.Fatalf("payload %d: got %q want %q", i, g.payloads[i], payloads[i])
		}
	}
	// Empty group round trips too.
	g, err = parseOpGroup(string(appendOpGroup(nil, 1, 0, nil)))
	if err != nil || len(g.payloads) != 0 {
		t.Fatalf("empty group: %+v, %v", g, err)
	}
}

func TestParseOpGroupRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"op",
		"op 1 2",
		"op 1 2 3",
		"op x 2 1 3:abc",
		"op 1 2 1 9:abc",        // length longer than payload
		"op 1 2 1 3:abcEXTRA",   // trailing bytes
		"op 1 2 2 3:abc",        // fewer records than declared
		"op 1 2 1 :abc",         // empty length
		"op 1 2 1 -3:abc",       // negative length
		"op 1 2 99999 3:abc",    // record count over cap
		"op 1 2 1 1234567890:x", // length prefix too wide
	} {
		if _, err := parseOpGroup(bad); err == nil {
			t.Fatalf("malformed op group %q accepted", bad)
		}
	}
}

func TestParseCommitted(t *testing.T) {
	m, err := parseCommitted(string(appendCommitted(nil, 7, "alice", 3, "i 0 hi there")))
	if err != nil || m.seq != 7 || m.clientID != "alice" || m.clientSeq != 3 || m.payload != "i 0 hi there" {
		t.Fatalf("got %+v, %v", m, err)
	}
	// The host's own origin id parses.
	m, err = parseCommitted(string(appendCommitted(nil, 8, hostOrigin, 0, "s 0 2 bold")))
	if err != nil || m.clientID != hostOrigin {
		t.Fatalf("host origin: %+v, %v", m, err)
	}
	for _, bad := range []string{"op 7 alice 3", "op x alice 3 p", "nop 7 alice 3 p", "op 7 bad id 3 p"} {
		if _, err := parseCommitted(bad); err == nil {
			t.Fatalf("bad committed %q accepted", bad)
		}
	}
}

// TestSnapFrameCarriesRawDocument pins the snapshot framing: a document
// that fits one frame is one snapr frame at offset 0 carrying the raw
// document bytes, an empty one included, and a bigger one is a gapless
// run of ranges that reassembles to the document.
func TestSnapFrameCarriesRawDocument(t *testing.T) {
	doc := "\\begindata{text,1}\nline one\nline two\n\\enddata{text,1}\n"
	for _, c := range []struct {
		doc      string
		perFrame int
		frames   int
	}{{doc, 1 << 20, 1}, {"", 1 << 20, 1}, {doc, 10, (len(doc) + 9) / 10}} {
		fbs := buildSnapFrames(3, 9, []byte(c.doc), c.perFrame)
		if len(fbs) != c.frames {
			t.Fatalf("%d-byte doc at %d per frame: %d frames, want %d", len(c.doc), c.perFrame, len(fbs), c.frames)
		}
		var wire []byte
		for _, fb := range fbs {
			wire = append(wire, fb.b...)
		}
		releaseFrames(fbs)
		r := readerOf(bytes.NewReader(wire))
		var body string
		for range fbs {
			frame, err := r.next()
			if err != nil {
				t.Fatal(err)
			}
			parts := strings.SplitN(frame, " ", 6)
			if len(parts) != 6 || parts[0] != "snapr" || parts[1] != "3" || parts[2] != "9" ||
				parts[3] != strconv.Itoa(len(c.doc)) || parts[4] != strconv.Itoa(len(body)) {
				t.Fatalf("snapr frame mangled: %q", frame)
			}
			body += parts[5]
		}
		if body != c.doc {
			t.Fatalf("snapshot reassembled to %q, want %q", body, c.doc)
		}
	}
}

func TestNameOK(t *testing.T) {
	for _, ok := range []string{"a", "notes/x.d", "A-b_c:9"} {
		if !nameOK(ok) {
			t.Errorf("nameOK(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "has space", "new\nline", "é", strings.Repeat("a", 257)} {
		if nameOK(bad) {
			t.Errorf("nameOK(%q) = true", bad)
		}
	}
}
