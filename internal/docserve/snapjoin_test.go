package docserve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"atk/internal/datastream"
	"atk/internal/persist"
	"atk/internal/table"
	"atk/internal/text"
)

// oracleSnapFrames is the join's framing as it was before the capture and
// the in-place escape, kept as the oracle the wire is held to: the
// document encoded whole, then each range frame's header and chunk built
// in one buffer and escaped as one logical line.
func oracleSnapFrames(t testing.TB, doc *text.Data, epoch, seq uint64, perFrame int) []byte {
	t.Helper()
	enc, err := persist.EncodeDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	var wire []byte
	for off := 0; off == 0 || off < len(enc); off += perFrame {
		end := min(off+perFrame, len(enc))
		line := appendSnapRange(nil, epoch, seq, len(enc), off, enc[off:end])
		wire = datastream.AppendEscapedBytes(wire, line)
	}
	return wire
}

// checkSnapshotJoin serves doc with frames of perFrame bytes (0 for the
// default) and holds a join to the oracle twice: the catch-up bytes on
// the wire must be the oracle's frames and the live marker, and a
// replica that joins must encode exactly as the host does.
func checkSnapshotJoin(t *testing.T, doc *text.Data, perFrame int) {
	t.Helper()
	reg := componentReg(t)
	doc.SetRegistry(reg)
	h := NewHost("d", doc, HostOptions{MaxSnapshotBytes: perFrame})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	defer srv.Close()

	want := oracleSnapFrames(t, doc, h.epoch, h.seq, h.opts.MaxSnapshotBytes)
	want = datastream.AppendEscapedBytes(want, appendLive(nil, h.seq))
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	go srv.HandleConn(sEnd)
	_ = cEnd.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := cEnd.Write(datastream.AppendEscaped(nil, encodeHello("d", "raw"))); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(cEnd, got); err != nil {
		t.Fatalf("reading %d catch-up bytes: %v", len(want), err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && got[i] == want[i] {
			i++
		}
		t.Fatalf("frames of %d bytes differ from the oracle at byte %d of %d:\n got %q\nwant %q",
			h.opts.MaxSnapshotBytes, i, len(want), got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}

	cEnd2, sEnd2 := net.Pipe()
	go srv.HandleConn(sEnd2)
	c, err := Connect(cEnd2, "d", ClientOptions{ClientID: "joiner", Registry: componentReg(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hostBytes, _, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeDoc(t, c.Doc()); !bytes.Equal(got, hostBytes) {
		t.Fatalf("joined replica diverged:\n--- host ---\n%s\n--- replica ---\n%s", hostBytes, got)
	}
}

// snapshotDoc returns a served-document shape for the join tests.
func snapshotDoc(t *testing.T, kind string) *text.Data {
	t.Helper()
	var sb strings.Builder
	line := func(i int) string {
		switch kind {
		case "non-ASCII":
			return fmt.Sprintf("ligne %d: café, naïve, 東京, 𝄞 and ✓\n", i)
		case "tabs":
			return fmt.Sprintf("\tcol %d\tcol\t\tend\n", i)
		case "backslashes":
			return fmt.Sprintf(`C:\dir\%d \\ \u0041; \begindata{text,1} trailing\`+"\n", i)
		case "long lines":
			return fmt.Sprintf("%d %s\n", i, strings.Repeat("a line far wider than eighty columns ", 6))
		}
		return fmt.Sprintf("line %d of plain words on a short line\n", i)
	}
	for i := 0; sb.Len() < 10<<10; i++ {
		sb.WriteString(line(i))
	}
	d := text.NewString(sb.String())
	switch kind {
	case "style runs":
		if err := d.Styles().Define(text.StyleDef{Name: "shout", Font: d.Styles().Lookup("bold").Font, Indent: 12}); err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			start, end int
			style      string
		}{{0, 40, "bold"}, {100, 3000, "shout"}, {5000, 5001, "italic"}} {
			if err := d.SetStyle(r.start, r.end, r.style); err != nil {
				t.Fatal(err)
			}
		}
	case "embedded table":
		td := table.New(3, 2)
		if err := td.SetNumber(1, 1, 42); err != nil {
			t.Fatal(err)
		}
		if err := td.SetText(0, 0, "cell\twith \\ and é"); err != nil {
			t.Fatal(err)
		}
		if err := d.Embed(2000, td, ""); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestSnapshotJoinMatchesOracle holds the join's frames and the replica
// it builds to the oracle for documents that take every escape path, at
// frame sizes that cut them into many frames and at the default, which
// sends each whole.
func TestSnapshotJoinMatchesOracle(t *testing.T) {
	for _, kind := range []string{"plain", "non-ASCII", "tabs", "backslashes", "long lines", "style runs", "embedded table", "empty"} {
		for _, perFrame := range []int{2048, 4096, 0} {
			t.Run(fmt.Sprintf("%s/%d", kind, perFrame), func(t *testing.T) {
				doc := text.New()
				if kind != "empty" {
					doc = snapshotDoc(t, kind)
				}
				checkSnapshotJoin(t, doc, perFrame)
			})
		}
	}
}

// FuzzSnapshotJoin holds a join of any text, optionally styled, at any
// frame size from 64 bytes, to the oracle.
func FuzzSnapshotJoin(f *testing.F) {
	f.Add([]byte("plain\nlines\n"), uint16(0), false)
	f.Add([]byte("caf\xc3\xa9 \\u; \t\\\n\xff\xfe bad bytes\n"+strings.Repeat("wide ", 40)), uint16(64), true)
	f.Add([]byte(strings.Repeat("x", 78)+"\n"+strings.Repeat("\\", 90)), uint16(200), false)
	f.Fuzz(func(t *testing.T, data []byte, perFrame uint16, styled bool) {
		doc := text.NewString(string(data))
		if styled && doc.Len() > 0 {
			if err := doc.SetStyle(doc.Len()/3, doc.Len(), "bold"); err != nil {
				t.Fatal(err)
			}
		}
		size := 0
		if perFrame > 0 {
			size = 64 + int(perFrame)
		}
		checkSnapshotJoin(t, doc, size)
	})
}
