package atk

// Benchmarks for the streaming large-document pipeline: what a user pays
// between asking for a huge document and seeing its first screen (TTFP),
// what holding it open costs in live heap, what saving a large edited
// document costs, and how a document past the per-frame snapshot bound
// attaches over the wire as chunked snapr range frames. `make
// bench-stream` records these in BENCH_stream.json, and cmd/slogate holds
// the committed numbers to release floors.

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"atk/internal/datastream"
	"atk/internal/docserve"
	"atk/internal/graphics"
	"atk/internal/persist"
	"atk/internal/text"
	"atk/internal/textview"
)

// largeDocBytes sizes the on-disk benchmark document (~100 MB): big
// enough that eager parsing is seconds of wall clock, so the streamed
// open's constant-time behavior is unmistakable.
const largeDocBytes = 100 << 20

func largeBenchContent(total int) string {
	var sb strings.Builder
	sb.Grow(total + 128)
	for i := 0; sb.Len() < total; i++ {
		fmt.Fprintf(&sb, "line %08d: the quick brown fox jumps over the lazy dog, again and again, %d\n", i, i)
	}
	return sb.String()
}

func BenchmarkStreamPipeline(b *testing.B) {
	reg := benchRegistry(b)
	dir := b.TempDir()
	path := filepath.Join(dir, "large.d")
	{
		doc := text.NewString(largeBenchContent(largeDocBytes))
		doc.SetRegistry(reg)
		if err := persist.SaveDocument(persist.OS, path, doc); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC() // drop the builder's garbage before anyone measures

	// One op = everything between "user opens the document" and "the first
	// viewport is laid out" — the time-to-first-paint path.
	open := func(streamed bool) (*persist.DocFile, *textview.View) {
		var df *persist.DocFile
		var err error
		if streamed {
			df, err = persist.LoadStreaming(persist.OS, path, reg, datastream.Strict)
		} else {
			df, err = persist.Load(persist.OS, path, reg, datastream.Strict)
		}
		if err != nil {
			b.Fatal(err)
		}
		tv := textview.New(reg)
		tv.SetDataObject(df.Doc)
		tv.SetBounds(graphics.XYWH(0, 0, 560, 360))
		tv.LayoutViewport()
		return df, tv
	}

	bench := func(streamed bool) func(*testing.B) {
		return func(b *testing.B) {
			// Live-heap cost of holding the opened document at first paint
			// (the peak-RSS story), measured once outside the timed loop.
			runtime.GC()
			var m0 runtime.MemStats
			runtime.ReadMemStats(&m0)
			df, tv := open(streamed)
			runtime.GC()
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			heap := float64(0)
			if m1.HeapAlloc > m0.HeapAlloc {
				heap = float64(m1.HeapAlloc-m0.HeapAlloc) / (1 << 20)
			}
			runtime.KeepAlive(tv)
			if streamed && df.Doc.PendingRunes() == 0 {
				b.Fatal("streamed open loaded the whole document")
			}
			_ = df.Close()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				df, _ := open(streamed)
				_ = df.Close()
			}
			// After the loop: ResetTimer would have deleted it earlier.
			b.ReportMetric(heap, "heap-mb")
		}
	}
	b.Run("OpenLargeDocEager", bench(false))
	b.Run("OpenLargeDocStreamed", bench(true))
}

// soloShapedContent returns lines of lowercase words 20 to 56 characters
// long, the shape of e2ebench solo_edit's document.
func soloShapedContent(lines int) string {
	words := strings.Fields("the toolkit view data object observer window frame scroll text table chart")
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		target, n := 20+rng.Intn(37), 0
		for {
			w := words[rng.Intn(len(words))]
			if n+len(w)+1 > 56 || n >= target {
				break
			}
			if n > 0 {
				sb.WriteByte(' ')
				n++
			}
			sb.WriteString(w)
			n += len(w)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// BenchmarkStreamSave measures the save of a large edited document. One
// op is one insert and one DocFile.Save — the encode, the atomic write
// with its fsyncs, the offset index and the journal rotation — of a
// 200,000-line document shaped like e2ebench solo_edit's. B/op is what
// one save allocates; doc-bytes is the size of the file it writes.
func BenchmarkStreamSave(b *testing.B) {
	reg := benchRegistry(b)
	path := filepath.Join(b.TempDir(), "save.d")
	if err := persist.SaveDocument(persist.OS, path, text.NewString(soloShapedContent(200000))); err != nil {
		b.Fatal(err)
	}
	df, err := persist.Load(persist.OS, path, reg, datastream.Strict)
	if err != nil {
		b.Fatal(err)
	}
	defer df.Close()
	if err := df.StartJournal(); err != nil {
		b.Fatal(err)
	}
	mid := df.Doc.Len() / 2
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := df.Doc.Insert(mid, "x"); err != nil {
			b.Fatal(err)
		}
		if err := df.Save(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Size()), "doc-bytes")
}

// BenchmarkStreamChunkedAttach measures a wire attach of a document far
// past the per-frame snapshot bound: the host encodes it and streams it
// as snapr range frames, and the replica assembles and decodes them. One
// op = one full attach (connect through live). A writer commits one edit
// before each attach, untimed, so that every attach encodes the document
// instead of being served from the host's snapshot cache.
func BenchmarkStreamChunkedAttach(b *testing.B) {
	reg := benchRegistry(b)
	doc := text.NewString(largeBenchContent(24 << 20))
	doc.SetRegistry(reg)
	h := docserve.NewHost("big.d", doc, docserve.HostOptions{})
	srv := docserve.NewServer(docserve.HostOptions{})
	srv.AddHost(h)
	defer srv.Close()
	connect := func(id string) *docserve.Client {
		cEnd, sEnd := net.Pipe()
		go srv.HandleConn(sEnd)
		c, err := docserve.Connect(cEnd, "big.d", docserve.ClientOptions{ClientID: id, Registry: reg})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	w := connect("writer")
	defer w.Close()
	base := h.Stats().SnapChunks

	b.SetBytes(24 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := w.Doc().Insert(0, "x"); err != nil {
			b.Fatal(err)
		}
		if err := w.Sync(time.Minute); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		c := connect(fmt.Sprintf("bench%d", i))
		if got, want := c.Doc().Len(), w.Doc().Len(); got != want {
			b.Fatalf("attach delivered %d runes, want %d", got, want)
		}
		_ = c.Close()
	}
	b.StopTimer()
	chunks := h.Stats().SnapChunks - base
	if chunks == 0 {
		b.Fatal("large attach did not use snapr chunk frames")
	}
	b.ReportMetric(float64(chunks)/float64(b.N), "chunks/attach")
}
