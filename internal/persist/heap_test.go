package persist

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"atk/internal/class"
	"atk/internal/datastream"
	"atk/internal/text"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLoadedDocumentHeapPerByte: a loaded 200,000-line ASCII document
// holds little more live heap than its text, streamed or eager. The
// store takes a byte per byte; the newline index and the pieces take the
// rest.
func TestLoadedDocumentHeapPerByte(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and loads an 8 MB document")
	}
	rng := rand.New(rand.NewSource(1))
	words := strings.Fields("the quick brown fox jumps over a lazy dog while seven wizards quietly hex")
	var b strings.Builder
	for i := 0; i < 200000; i++ {
		for n := 3 + rng.Intn(8); n > 0; n-- {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "big.d")
	if err := SaveDocument(OS, path, text.NewString(b.String())); err != nil {
		t.Fatal(err)
	}
	size := float64(b.Len())
	b = strings.Builder{}
	reg := class.NewRegistry()
	if err := text.Register(reg); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		limit float64
		load  func() (*DocFile, error)
	}{
		{"streamed", 1.3, func() (*DocFile, error) {
			df, err := LoadStreaming(OS, path, reg, datastream.Strict)
			if err == nil && !df.Doc.Pending() {
				err = fmt.Errorf("the open was not streamed")
			}
			if err == nil {
				err = df.Doc.LoadAll()
			}
			return df, err
		}},
		{"eager", 1.5, func() (*DocFile, error) { return Load(OS, path, reg, datastream.Strict) }},
	} {
		before := liveHeap()
		df, err := c.load()
		if err != nil {
			t.Fatal(err)
		}
		perByte := float64(liveHeap()-before) / size
		if df.Doc.ByteLen() != int(size) {
			t.Fatalf("%s: loaded %d bytes of %d", c.name, df.Doc.ByteLen(), int(size))
		}
		t.Logf("%s: %.3f bytes of live heap per byte of text", c.name, perByte)
		if perByte > c.limit {
			t.Errorf("%s: %.3f bytes of live heap per byte of text, want at most %.1f", c.name, perByte, c.limit)
		}
		if err := df.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
