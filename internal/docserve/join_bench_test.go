package docserve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"atk/internal/datastream"
	"atk/internal/persist"
	"atk/internal/text"
)

// joinBenchText returns about 121 KB of text shaped like e2ebench
// pair_type's served document: lines of 20-56 columns of lowercase words.
func joinBenchText() string {
	words := strings.Fields(`the toolkit view data object observer window frame scroll
text table chart raster drawing equation message folder console layout update
region damage style paragraph insert delete cursor replica journal commit server`)
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for sb.Len() < 121<<10 {
		line := 0
		for target := 20 + rng.Intn(37); line < target; {
			w := words[rng.Intn(len(words))]
			if line+len(w)+1 > 56 {
				break
			}
			if line > 0 {
				sb.WriteByte(' ')
				line++
			}
			sb.WriteString(w)
			line += len(w)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// BenchmarkDocServeJoin measures a cache-miss join of a 121 KB document
// shaped like e2ebench pair_type's, in three parts:
//   - tcp: the whole join over loopback TCP, dial through live, with one
//     committed edit between joins (untimed) so that none is served from
//     the snapshot cache. It reports the document's bytes (123,917, fixed
//     by the seed), which the join-allocation gate's bound is 8 times.
//   - host: the host's share of a miss, as attach does it: the capture,
//     its encoding, and the snapr frames.
//   - client: the client's share: those frames and the live marker read
//     by the catch-up reader into a replica.
func BenchmarkDocServeJoin(b *testing.B) {
	content := joinBenchText()
	b.Run("tcp", func(b *testing.B) {
		reg := textReg()
		doc := text.NewString(content)
		doc.SetRegistry(reg)
		srv := NewServer(HostOptions{})
		srv.AddHost(NewHost("join.d", doc, HostOptions{}))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Skipf("no loopback TCP: %v", err)
		}
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Serve(ln) }()
		defer func() { _ = srv.Close(); <-done }()
		dial := func(id string) *Client {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			c, err := Connect(conn, "join.d", ClientOptions{ClientID: id, Registry: reg})
			if err != nil {
				b.Fatalf("connect %s: %v", id, err)
			}
			return c
		}
		w := dial("writer")
		defer w.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := w.Doc().Insert(0, "x"); err != nil {
				b.Fatal(err)
			}
			if err := w.Sync(10 * time.Second); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			c := dial(fmt.Sprintf("joiner%d", i))
			if c.Doc().Len() != w.Doc().Len() {
				b.Fatalf("joined %d runes, want %d", c.Doc().Len(), w.Doc().Len())
			}
			_ = c.Close()
		}
		b.ReportMetric(float64(len(content)), "doc-bytes")
	})

	doc := text.NewString(content)
	b.Run("host", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, _ := doc.Capture()
			enc, err := persist.EncodeCapture(c)
			if err != nil {
				b.Fatal(err)
			}
			releaseFrames(buildSnapFrames(1, 1, enc, maxServeBytes))
		}
	})
	b.Run("client", func(b *testing.B) {
		enc, err := persist.EncodeDocument(doc)
		if err != nil {
			b.Fatal(err)
		}
		var wire []byte
		for _, fb := range buildSnapFrames(1, 1, enc, maxServeBytes) {
			wire = append(wire, fb.b...)
			fb.release()
		}
		wire = datastream.AppendEscapedBytes(wire, appendLive(nil, 1))
		reg := textReg()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := &Client{opts: ClientOptions{Registry: reg}, fr: newFrameReader(bytes.NewReader(wire))}
			for !c.live {
				if err := c.catchUpFrame(); err != nil {
					b.Fatal(err)
				}
			}
			if c.doc.Len() != doc.Len() {
				b.Fatalf("joined %d runes, want %d", c.doc.Len(), doc.Len())
			}
		}
	})
}
