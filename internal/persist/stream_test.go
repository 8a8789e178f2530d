package persist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"atk/internal/datastream"
	"atk/internal/text"
)

// bigContent builds deterministic multi-line content exercising the
// escape scheme: long lines (continuation-wrapped on disk), backslashes,
// and non-ASCII runes.
func bigContent(lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&b, "line %d: ", i)
		switch i % 4 {
		case 0:
			b.WriteString(strings.Repeat("stream ", 20)) // wraps past MaxLine
		case 1:
			b.WriteString(`back\slash and tab:	end`)
		case 2:
			b.WriteString("café — φ ≠ ψ")
		case 3:
			b.WriteString("plain")
		}
		b.WriteString("\n")
	}
	b.WriteString("last line, no trailing newline")
	return b.String()
}

func docText(d *text.Data) string {
	return string(d.Runes(0, d.Len()))
}

func TestStreamingOpenMatchesEager(t *testing.T) {
	mem := NewMemFS()
	reg := newReg(t)
	content := bigContent(3000) // several tail chunks' worth on disk
	doc := text.NewString(content)
	if err := doc.SetStyle(3, 40, "bold"); err != nil {
		t.Fatal(err)
	}
	if err := SaveDocument(mem, "doc.d", doc); err != nil {
		t.Fatal(err)
	}
	if !Exists(mem, IndexPath("doc.d")) {
		t.Fatal("save wrote no offset index")
	}

	df, err := LoadStreaming(mem, "doc.d", reg, datastream.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !df.Doc.Pending() {
		t.Fatal("streaming open did not defer the content")
	}
	if df.Doc.Len() != 0 {
		t.Fatalf("streamed prefix holds %d runes of content before any fault-in", df.Doc.Len())
	}
	if df.Dirty() {
		t.Fatal("streamed open reports dirty")
	}
	wantRunes := len([]rune(content))
	if got := df.Doc.PendingRunes(); got != wantRunes {
		t.Fatalf("PendingRunes = %d, want %d", got, wantRunes)
	}

	// Fault in one chunk: the document grows but is not yet complete.
	if err := df.Doc.LoadMore(); err != nil {
		t.Fatal(err)
	}
	if df.Doc.Len() == 0 {
		t.Fatal("LoadMore delivered nothing")
	}
	if !df.Doc.Pending() || df.Doc.Len() >= wantRunes {
		t.Fatalf("one chunk loaded the whole %d-rune document (%d)", wantRunes, df.Doc.Len())
	}
	if !strings.HasPrefix(content, docText(df.Doc)) {
		t.Fatal("partially loaded content is not a prefix of the document")
	}
	if df.Dirty() {
		t.Fatal("fault-in marked the document dirty")
	}

	if err := df.Doc.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if df.Doc.Pending() || df.Doc.PendingRunes() != 0 {
		t.Fatal("LoadAll left content pending")
	}
	if got := docText(df.Doc); got != content {
		t.Fatalf("streamed content differs from saved content (%d vs %d runes)", len([]rune(got)), len([]rune(content)))
	}
	// Styles parsed from the head survive alongside the streamed content.
	if len(df.Doc.Runs()) == 0 {
		t.Fatal("style runs lost in streaming open")
	}

	eager := load(t, mem, reg)
	if docText(eager.Doc) != docText(df.Doc) {
		t.Fatal("streamed and eager opens disagree")
	}
}

func TestStreamedEditForcesFullLoad(t *testing.T) {
	mem := NewMemFS()
	reg := newReg(t)
	content := bigContent(120)
	if err := SaveDocument(mem, "doc.d", text.NewString(content)); err != nil {
		t.Fatal(err)
	}
	df, err := LoadStreaming(mem, "doc.d", reg, datastream.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !df.Doc.Pending() {
		t.Fatal("streaming open did not defer the content")
	}
	// Load-before-mutate: the insert position must mean what it means in
	// the complete document.
	if err := df.Doc.Insert(0, "X"); err != nil {
		t.Fatal(err)
	}
	if df.Doc.Pending() {
		t.Fatal("mutating a streamed document left content pending")
	}
	if got := docText(df.Doc); got != "X"+content {
		t.Fatal("edit on streamed document corrupted content")
	}
}

func TestStreamedJournalBindsToSavedBytes(t *testing.T) {
	// The streamed open never reads the full file, so the journal header
	// CRC comes from the offset index. Prove it matches by crashing and
	// letting the eager open's recovery accept the journal.
	mem := NewMemFS()
	reg := newReg(t)
	content := bigContent(80)
	if err := SaveDocument(mem, "doc.d", text.NewString(content)); err != nil {
		t.Fatal(err)
	}
	df, err := LoadStreaming(mem, "doc.d", reg, datastream.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !df.Doc.Pending() {
		t.Fatal("streaming open did not defer the content")
	}
	if err := df.StartJournal(); err != nil {
		t.Fatal(err)
	}
	if err := df.Doc.Insert(0, "recovered"); err != nil {
		t.Fatal(err)
	}
	if err := df.Sync(); err != nil {
		t.Fatal(err)
	}
	mem.SyncDir("")
	// Crash: no Close, reopen from disk.
	rec := load(t, mem, reg)
	if rec.Replayed == 0 {
		t.Fatalf("journal from streamed session not recovered: %v", rec.RecoveryDiags)
	}
	if got := docText(rec.Doc); got != "recovered"+content {
		t.Fatal("recovery over streamed-session journal produced wrong content")
	}
}

func TestStreamingFallsBackWhenJournalPresent(t *testing.T) {
	mem := NewMemFS()
	reg := newReg(t)
	content := bigContent(60)
	if err := SaveDocument(mem, "doc.d", text.NewString(content)); err != nil {
		t.Fatal(err)
	}
	df, err := LoadStreaming(mem, "doc.d", reg, datastream.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if err := df.StartJournal(); err != nil {
		t.Fatal(err)
	}
	if err := df.Doc.Insert(0, "Y"); err != nil {
		t.Fatal(err)
	}
	if err := df.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash with a journal on disk: the next open must take the eager
	// path so recovery can replay over the complete document.
	df2, err := LoadStreaming(mem, "doc.d", reg, datastream.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if df2.Doc.Pending() {
		t.Fatal("streaming open ignored a leftover journal")
	}
	if df2.Replayed == 0 {
		t.Fatalf("recovery skipped: %v", df2.RecoveryDiags)
	}
	if got := docText(df2.Doc); got != "Y"+content {
		t.Fatal("recovery produced wrong content")
	}
}

func TestStreamingFallsBackOnUnstreamableShape(t *testing.T) {
	mem := NewMemFS()
	reg := newReg(t)
	doc := text.NewString("host text")
	child := text.NewString("embedded")
	if err := doc.Embed(4, child, "textview"); err != nil {
		t.Fatal(err)
	}
	if err := SaveDocument(mem, "doc.d", doc); err != nil {
		t.Fatal(err)
	}
	// The sidecar exists but marks the shape unstreamable.
	ix, err := LoadIndex(mem, "doc.d")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Streamable {
		t.Fatal("document with embedded component marked streamable")
	}
	df, err := LoadStreaming(mem, "doc.d", reg, datastream.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if df.Doc.Pending() {
		t.Fatal("unstreamable document opened lazily")
	}
	if len(df.Doc.Embeds()) != 1 {
		t.Fatalf("embeds = %d, want 1", len(df.Doc.Embeds()))
	}
}

// TestCorruptIndexFallsBackToFullParse is the recovery guarantee: a bad
// sidecar — truncated, bit-flipped, wrong magic, stale against the file
// — must never change the opened bytes, only the speed of the open.
func TestCorruptIndexFallsBackToFullParse(t *testing.T) {
	content := bigContent(150)
	seed := func(t *testing.T) (*MemFS, []byte) {
		t.Helper()
		mem := NewMemFS()
		if err := SaveDocument(mem, "doc.d", text.NewString(content)); err != nil {
			t.Fatal(err)
		}
		ib, err := ReadFile(mem, IndexPath("doc.d"))
		if err != nil {
			t.Fatal(err)
		}
		return mem, ib
	}
	rewrite := func(t *testing.T, mem *MemFS, b []byte) {
		t.Helper()
		f, err := mem.Create(IndexPath("doc.d"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		mangle func(t *testing.T, mem *MemFS, ib []byte)
	}{
		{"truncated", func(t *testing.T, mem *MemFS, ib []byte) {
			rewrite(t, mem, ib[:len(ib)/2])
		}},
		{"bit flip in record", func(t *testing.T, mem *MemFS, ib []byte) {
			mut := append([]byte(nil), ib...)
			mut[len(mut)/2] ^= 0x20
			rewrite(t, mem, mut)
		}},
		{"bad magic", func(t *testing.T, mem *MemFS, ib []byte) {
			rewrite(t, mem, append([]byte("%atkjournal1\n"), ib...))
		}},
		{"empty", func(t *testing.T, mem *MemFS, ib []byte) {
			rewrite(t, mem, nil)
		}},
		{"mark record", func(t *testing.T, mem *MemFS, ib []byte) {
			// Sidecars once carried seek marks, which nothing read. One
			// written with a mark (as every non-empty text document's
			// was) no longer validates, so the open parses eagerly until
			// the next save rewrites it.
			recs, err := ReadRecordFile(mem, IndexPath("doc.d"), IndexMagic)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := LoadIndex(mem, "doc.d")
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, fmt.Sprintf("mark 0 0 %d", ix.ContentStart))
			rewrite(t, mem, encodeRecords(IndexMagic, recs))
			if _, err := LoadIndex(mem, "doc.d"); err == nil {
				t.Fatal("sidecar with a mark record validated")
			}
		}},
		{"missing", func(t *testing.T, mem *MemFS, ib []byte) {
			if err := mem.Remove(IndexPath("doc.d")); err != nil {
				t.Fatal(err)
			}
		}},
		{"stale after rewrite", func(t *testing.T, mem *MemFS, ib []byte) {
			// The document changes but the old sidecar stays behind.
			if err := SaveDocument(mem, "other.d", text.NewString(content+"tail\n")); err != nil {
				t.Fatal(err)
			}
			nb, err := ReadFile(mem, "other.d")
			if err != nil {
				t.Fatal(err)
			}
			f, err := mem.Create("doc.d")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(nb); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			rewrite(t, mem, ib)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem, ib := seed(t)
			tc.mangle(t, mem, ib)
			reg := newReg(t)
			df, err := LoadStreaming(mem, "doc.d", reg, datastream.Strict)
			if err != nil {
				t.Fatal(err)
			}
			if err := df.Doc.LoadAll(); err != nil {
				t.Fatal(err)
			}
			ref := load(t, mem, reg)
			if docText(df.Doc) != docText(ref.Doc) {
				t.Fatalf("%s: corrupt index changed the opened bytes", tc.name)
			}
		})
	}
}

// readCountFS counts the bytes read from one of its files.
type readCountFS struct {
	FS
	name string
	read int
}

func (c *readCountFS) Open(name string) (File, error) {
	f, err := c.FS.Open(name)
	if err != nil || name != c.name {
		return f, err
	}
	return &readCountFile{f, c}, nil
}

type readCountFile struct {
	File
	fs *readCountFS
}

func (f *readCountFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.read += n
	return n, err
}

// TestStreamedTailLineBound: the streamed tail bounds a physical line as
// the eager Reader does, at 1 MiB without its newline. A line of exactly
// the bound loads as the eager open does; one byte more latches an
// ErrLimit TailErr; and a far longer line latches it having read about
// the bound of it, not the whole line.
func TestStreamedTailLineBound(t *testing.T) {
	const bound = 1 << 20
	content := strings.Repeat(strings.Repeat("x", 78)+"\n", 50000) // 3.95 MB
	for _, lineLen := range []int{bound, bound + 1, 3 * bound} {
		mem := NewMemFS()
		if err := SaveDocument(mem, "doc.d", text.NewString(content)); err != nil {
			t.Fatal(err)
		}
		// Past the head the index checks, join lines into one physical
		// line of lineLen bytes; the file keeps its length.
		b, err := ReadFile(mem, "doc.d")
		if err != nil {
			t.Fatal(err)
		}
		start := 8192 + bytes.IndexByte(b[8192:], '\n') + 1
		for i := start; i < start+lineLen; i++ {
			b[i] = 'x'
		}
		b[start+lineLen] = '\n'
		f, err := mem.Create("doc.d")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		fsys := &readCountFS{FS: mem, name: "doc.d"}
		reg := newReg(t)
		df, err := LoadStreaming(fsys, "doc.d", reg, datastream.Strict)
		if err != nil {
			t.Fatal(err)
		}
		if !df.Doc.Pending() {
			t.Fatalf("%d-byte line: the open did not stream", lineLen)
		}
		fsys.read = 0
		err = df.Doc.LoadAll()
		if lineLen == bound {
			if err != nil {
				t.Fatalf("line of exactly the bound: %v", err)
			}
			if docText(df.Doc) != docText(load(t, mem, reg).Doc) {
				t.Fatal("line of exactly the bound: streamed and eager opens disagree")
			}
			continue
		}
		if err == nil || !errors.Is(df.Doc.TailErr(), datastream.ErrLimit) {
			t.Fatalf("%d-byte line: LoadAll %v, TailErr %v; want ErrLimit", lineLen, err, df.Doc.TailErr())
		}
		if most := start + bound + 2*tailChunkBytes; fsys.read > most {
			t.Fatalf("%d-byte line: read %d bytes of the file, want at most %d", lineLen, fsys.read, most)
		}
	}
}

func TestBuildIndexGeometry(t *testing.T) {
	content := bigContent(50)
	doc := text.NewString(content)
	b, err := EncodeDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(b)
	if !ix.Streamable {
		t.Fatal("plain text document not streamable")
	}
	if got, want := ix.ContentRunes(), len([]rune(content)); got != want {
		t.Fatalf("ContentRunes = %d, want %d", got, want)
	}
	if got, want := ix.Lines, strings.Count(content, "\n")+1; got != want {
		t.Fatalf("Lines = %d, want %d", got, want)
	}
	// The index round-trips through its on-disk form.
	recs, err := parseRecords(encodeRecords(IndexMagic, ix.records()), IndexMagic)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseIndex(recs)
	if err != nil {
		t.Fatal(err)
	}
	if back.DocCRC != ix.DocCRC || back.ContentStart != ix.ContentStart ||
		back.ContentEnd != ix.ContentEnd || back.Runes != ix.Runes ||
		back.Lines != ix.Lines || back.Streamable != ix.Streamable {
		t.Fatalf("round-trip mismatch:\n%+v\n%+v", ix, back)
	}
}

// TestEncodeAllocsIndependentOfLines pins the encoder's per-line cost at
// zero allocations: ten times the lines may not double the allocation
// count (only the output buffer's doublings grow with size).
func TestEncodeAllocsIndependentOfLines(t *testing.T) {
	allocs := func(lines int) float64 {
		doc := text.NewString(bigContent(lines))
		return testing.AllocsPerRun(3, func() {
			if _, err := EncodeDocument(doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2000), allocs(20000)
	if large > 2*small {
		t.Fatalf("EncodeDocument allocates %v times for 2,000 lines but %v for 20,000", small, large)
	}
}

// TestRemainingRunesBoundedByContentBytes: an offset index that claims
// more runes than the content bytes left cannot make LoadAll reserve
// more than the file holds.
func TestRemainingRunesBoundedByContentBytes(t *testing.T) {
	content := &io.LimitedReader{R: strings.NewReader("one\ntwo\n"), N: 8}
	br := bufio.NewReaderSize(content, 16)
	tl := &tailLoader{content: content, br: br,
		lr: datastream.NewLineReader(br, 1<<10), totalRunes: 1 << 40}
	if got := tl.RemainingRunes(); got != 8 {
		t.Fatalf("RemainingRunes = %d before reading, want the 8 content bytes", got)
	}
	if _, err := tl.Next(nil); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if got := tl.RemainingRunes(); got != 0 {
		t.Fatalf("RemainingRunes = %d with the content consumed, want 0", got)
	}
}
