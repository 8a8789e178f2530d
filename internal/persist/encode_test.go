package persist

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/datastream"
	"atk/internal/graphics"
	"atk/internal/table"
	"atk/internal/text"
)

// The save path streams a document's pieces into the escape encoder. These
// tests hold it to the bytes of the path it replaced, which sliced the
// text between embedded components into one string and escaped that, and
// hold BuildIndex's unescaped-line shortcut to the index the full decode
// gives.

// encodeOldPath is a test-local copy of the encoding before the streaming
// text entry: each stretch of text between embeds is copied out with
// Slice and written with WriteText.
func encodeOldPath(t testing.TB, d *text.Data) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := datastream.NewWriter(&buf)
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := w.Begin("text")
	check(err)
	writeStylesOldPath(t, w, d)
	cursor := 0
	for _, e := range d.Embeds() {
		if chunk := d.Slice(cursor, e.Pos); chunk != "" {
			check(w.WriteText(chunk))
		}
		id, err := core.WriteObject(w, e.Obj)
		check(err)
		check(w.View(e.ViewName, id))
		cursor = e.Pos + 1
	}
	if chunk := d.Slice(cursor, d.Len()); chunk != "" {
		check(w.WriteText(chunk))
	}
	check(w.End())
	check(w.Close())
	return buf.Bytes()
}

// writeStylesOldPath is a copy of the text object's textstyles block.
func writeStylesOldPath(t testing.TB, w *datastream.Writer, d *text.Data) {
	t.Helper()
	if len(d.Runs()) == 0 {
		return
	}
	if _, err := w.Begin("textstyles"); err != nil {
		t.Fatal(err)
	}
	stock := text.NewStyleTable()
	seen := map[string]bool{}
	for _, r := range d.Runs() {
		if seen[r.Style] {
			continue
		}
		seen[r.Style] = true
		def := d.Styles().Lookup(r.Style)
		if stock.Has(def.Name) && stock.Lookup(def.Name) == def {
			continue
		}
		line := fmt.Sprintf("def %s %s %d %s %d %d", def.Name, def.Font.Family,
			def.Font.Size, def.Font.Style, def.Indent, int(def.Justify))
		if err := w.WriteRawLine(line); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range d.Runs() {
		if err := w.WriteRawLine(fmt.Sprintf("run %d %d %s", r.Start, r.End-r.Start, r.Style)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
}

// editAtoms are the strings edited documents are built from: words,
// non-ASCII and astral runes, tabs, control runes, backslash runs, lines
// far past 79 columns, empty lines and newlines.
var editAtoms = []string{
	"the ", "toolkit ", "view ", "data object ",
	"café ", "— ", "φ ≠ ψ ", "✓", "𝔘𝔫𝔦", "💩",
	"\t", "a\tb", "\x01", "\x7f", "\x00",
	`\`, `\\`, `\\\`, `\u41; not an escape `,
	strings.Repeat("wrap", 30), strings.Repeat("é", 90), strings.Repeat(`x\`, 50),
	"\n", "\n\n", "line\n",
}

// newEditReg is a registry for edited documents: text and the embedded
// table.
func newEditReg(t testing.TB) *class.Registry {
	t.Helper()
	reg := class.NewRegistry()
	if err := text.Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := table.Register(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

// editedDoc builds a document through inserts and deletes, so its text
// spans many pieces and its logical lines and 79-column wraps cross piece
// boundaries; it adds style runs (one in a style of its own) and an
// embedded table, and ends in a newline half the time.
func editedDoc(t testing.TB, rng *rand.Rand, reg *class.Registry) *text.Data {
	t.Helper()
	d := text.New()
	d.SetRegistry(reg)
	if err := d.Styles().Define(text.StyleDef{
		Name: "marginal",
		Font: graphics.FontDesc{Family: "andy", Size: 10, Style: graphics.Italic},
	}); err != nil {
		t.Fatal(err)
	}
	pos := func() int { return rng.Intn(d.Len() + 1) }
	for i, n := 0, 50+rng.Intn(250); i < n; i++ {
		var err error
		switch k := rng.Intn(10); {
		case k < 6:
			err = d.Insert(pos(), editAtoms[rng.Intn(len(editAtoms))])
		case k < 8:
			p := pos()
			err = d.Delete(p, min(rng.Intn(12), d.Len()-p))
		default:
			a, b := pos(), pos()
			err = d.SetStyle(min(a, b), max(a, b), []string{"bold", "italic", "marginal"}[rng.Intn(3)])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(2) == 0 {
		tab := table.New(2, 2)
		if err := tab.Set(0, 0, "cell\\one"); err != nil {
			t.Fatal(err)
		}
		if err := d.Embed(pos(), tab, "spread"); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(2) == 0 {
		if err := d.Insert(d.Len(), "\n"); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestEncodeMatchesOldPath: over seeded edited documents, EncodeDocument
// returns exactly the bytes the slice-and-WriteText path wrote.
func TestEncodeMatchesOldPath(t *testing.T) {
	reg := newEditReg(t)
	rng := rand.New(rand.NewSource(1))
	pieces, embeds := 0, 0
	for i := 0; i < 80; i++ {
		d := editedDoc(t, rng, reg)
		pieces += d.PieceCount()
		embeds += len(d.Embeds())
		got, err := EncodeDocument(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeOldPath(t, d); !bytes.Equal(got, want) {
			t.Fatalf("doc %d: streamed encoding differs from the old path\n got %q\nwant %q", i, got, want)
		}
	}
	if pieces < 80*20 || embeds == 0 {
		t.Fatalf("corpus too tame: %d pieces and %d embeds over 80 documents", pieces, embeds)
	}
}

// soloShapedContent is lines of lowercase words 20 to 56 characters
// long, like e2ebench's solo_edit document.
func soloShapedContent(lines int) string {
	words := strings.Fields("the toolkit view data object observer window frame scroll text table chart")
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for i := 0; i < lines; i++ {
		target, n := 20+rng.Intn(37), 0
		for {
			w := words[rng.Intn(len(words))]
			if n+len(w)+1 > 56 || n >= target {
				break
			}
			if n > 0 {
				b.WriteByte(' ')
				n++
			}
			b.WriteString(w)
			n += len(w)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestEncodeAllocatesAboutItsOutput: the encoder sizes its buffer once
// and copies no text, so encoding a 200,000-line document allocates at
// most 1.25 times the bytes it returns.
func TestEncodeAllocatesAboutItsOutput(t *testing.T) {
	for name, content := range map[string]string{
		"words":   soloShapedContent(200000),
		"escapes": bigContent(200000),
	} {
		doc := text.NewString(content)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		out, err := EncodeDocument(doc)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; float64(alloc) > 1.25*float64(len(out)) {
			t.Errorf("%s: EncodeDocument allocated %d bytes for %d bytes of output", name, alloc, len(out))
		}
	}
}

// buildIndexOldPath is a test-local copy of BuildIndex as it was, which
// decoded every content line.
func buildIndexOldPath(doc []byte) *DocIndex {
	ix := &DocIndex{
		DocLen:  int64(len(doc)),
		DocCRC:  crc32.ChecksumIEEE(doc),
		HeadLen: min(len(doc), headProbe),
	}
	ix.HeadCRC = crc32.ChecksumIEEE(doc[:ix.HeadLen])

	// Physical-line walker over the raw bytes — no per-line allocation,
	// because this runs over the whole document at every save.
	pos := 0
	nextLine := func() ([]byte, int, bool) {
		if pos >= len(doc) {
			return nil, pos, false
		}
		start := pos
		nl := bytes.IndexByte(doc[pos:], '\n')
		if nl < 0 {
			pos = len(doc)
			return doc[start:], start, true
		}
		pos += nl + 1
		return doc[start : start+nl], start, true
	}
	beginPrefix := []byte(`\begindata{`)

	// Top-level begin marker.
	line, _, _ := nextLine()
	top, merr := datastream.ParseMarker(string(line))
	if merr != nil || top.Kind != datastream.TokBegin {
		return ix
	}
	ix.CompType, ix.CompID = top.Type, top.ID
	endMarker := []byte(fmt.Sprintf(`\enddata{%s,%d}`, top.Type, top.ID))
	if top.Type != "text" {
		return ix
	}

	// Optional textstyles block, which must be flat.
	contentStart := pos
	line, off, ok := nextLine()
	if ok && bytes.HasPrefix(line, beginPrefix) {
		styles, serr := datastream.ParseMarker(string(line))
		if serr != nil || styles.Type != "textstyles" {
			return ix
		}
		styleEnd := []byte(fmt.Sprintf(`\enddata{%s,%d}`, styles.Type, styles.ID))
		for {
			line, _, ok = nextLine()
			if !ok || bytes.HasPrefix(line, beginPrefix) {
				return ix
			}
			if bytes.Equal(line, styleEnd) {
				break
			}
		}
		contentStart = pos
		line, off, ok = nextLine()
	}
	ix.ContentStart = int64(contentStart)

	// Content payload: logical text lines only, up to our end marker.
	var scratch []byte
	inLogical := false
	for ok {
		if !inLogical && bytes.Equal(line, endMarker) {
			ix.ContentEnd = int64(off)
			// Nothing may follow the end marker.
			if pos != len(doc) {
				return ix
			}
			ix.Streamable = true
			return ix
		}
		if !inLogical && (bytes.HasPrefix(line, beginPrefix) || bytes.HasPrefix(line, []byte(`\view{`)) || bytes.HasPrefix(line, []byte(`\enddata{`))) {
			return ix // embedded object or foreign nesting: not streamable
		}
		if !inLogical {
			scratch = scratch[:0]
		}
		var cont bool
		var derr error
		scratch, cont, derr = datastream.DecodeAppend(scratch, line)
		if derr != nil {
			return ix
		}
		inLogical = cont
		if !cont {
			ix.Runes += utf8.RuneCount(scratch)
			ix.Lines++
		}
		line, off, ok = nextLine()
	}
	return ix // EOF before the end marker: torn file, not streamable
}

// TestBuildIndexMatchesFullDecode: counting unescaped lines in place gives
// the index the full decode gives, on the encoder corpus and on hostile
// bytes no encoder writes.
func TestBuildIndexMatchesFullDecode(t *testing.T) {
	var docs [][]byte
	reg := newEditReg(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		b, err := EncodeDocument(editedDoc(t, rng, reg))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b)
	}
	head, tail := "\\begindata{text,1}\n", "\\enddata{text,1}\n"
	for _, body := range []string{
		"raw caf\xc3\xa9 and a cut rune \xe2\x9c\nplain\n",    // raw non-ASCII, no backslash
		"raw \xff\xfe with an escape \\u41; and \\\\\nnext\n", // raw non-ASCII beside escapes
		"continued \xe2\x9c\\\n\x93 rune split by a wrap\n",   // a rune split across a continuation
		"\\u4\\\n1; escape split by a wrap\n",                 // an escape split by a wrap
		"a line\\\n",                                          // continuation at end of content
		"",                                                    // no content at all
		"\n\n\n",                                              // empty lines
	} {
		docs = append(docs, []byte(head+body+tail))
	}
	// A continuation at end of file, and a file cut inside a line.
	docs = append(docs, []byte(head+"cut off\\\n"), []byte(head+"no newline\xc3"))
	for i, b := range docs {
		got, want := BuildIndex(b), buildIndexOldPath(b)
		if *got != *want {
			t.Fatalf("doc %d (%q...): index\n%+v\nwant\n%+v", i, b[:min(len(b), 80)], got, want)
		}
	}
}

// TestSaveFaultKeepsOldFileAndIndex fails the save's temp write, its
// fsync and its rename in turn. Each time Save returns the error, the old
// file and its offset index still serve a streamed open, and the index
// goroutine has been joined.
func TestSaveFaultKeepsOldFileAndIndex(t *testing.T) {
	reg := newReg(t)
	old := bigContent(400)

	// A clean save, to find where its rename falls among the counted ops.
	probeMem := NewMemFS()
	seedDoc(t, probeMem, old)
	probe := NewFaultFS(probeMem)
	pdf, err := Load(probe, "doc.d", reg, datastream.Strict)
	if err != nil {
		t.Fatal(err)
	}
	base := probe.Ops()
	_ = pdf.Doc.Insert(0, "new ")
	if err := pdf.Save(); err != nil {
		t.Fatal(err)
	}
	renameAt := 0
	for i, op := range probe.Trace()[base:] {
		if strings.HasPrefix(op, fmt.Sprintf("%d:rename doc.d.tmp", base+i+1)) {
			renameAt = base + i + 1
			break
		}
	}
	if renameAt == 0 {
		t.Fatalf("no rename in the save's trace %q", probe.Trace()[base:])
	}

	for _, tc := range []struct {
		name string
		arm  func(*FaultFS)
	}{
		{"temp write", func(f *FaultFS) { f.FailWriteAt = f.writes + 1 }},
		{"fsync", func(f *FaultFS) { f.FailSyncAt = f.syncs + 1 }},
		{"rename", func(f *FaultFS) { f.CrashAfter = renameAt }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := NewMemFS()
			seedDoc(t, mem, old)
			ffs := NewFaultFS(mem)
			df, err := Load(ffs, "doc.d", reg, datastream.Strict)
			if err != nil {
				t.Fatal(err)
			}
			_ = df.Doc.Insert(0, "new ")
			before := runtime.NumGoroutine()
			tc.arm(ffs)
			if err := df.Save(); err == nil {
				t.Fatal("save under an injected fault reported success")
			}
			// The index goroutine is joined before Save returns; allow
			// it only the moment it takes to exit after handing over.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the failed save, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
			sdf, err := LoadStreaming(mem, "doc.d", reg, datastream.Strict)
			if err != nil {
				t.Fatal(err)
			}
			defer sdf.Close()
			if !sdf.Doc.Pending() {
				t.Fatal("the old index no longer serves a streamed open")
			}
			if err := sdf.Doc.LoadAll(); err != nil {
				t.Fatal(err)
			}
			if got := docText(sdf.Doc); got != old {
				t.Fatalf("old file changed: %d runes, want %d", len(got), len(old))
			}
		})
	}
}

// TestFileCRCIsTheFileBytes: FileCRC is the CRC of the bytes on disk
// after a load and after a save, and the save's sidecar is the index of
// exactly those bytes.
func TestFileCRCIsTheFileBytes(t *testing.T) {
	mem := NewMemFS()
	reg := newReg(t)
	seedDoc(t, mem, bigContent(50))
	df := load(t, mem, reg)
	for _, step := range []string{"load", "save"} {
		if step == "save" {
			_ = df.Doc.Insert(3, "edit ")
			if err := df.Save(); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := ReadFile(mem, "doc.d")
		if err != nil {
			t.Fatal(err)
		}
		if df.FileCRC() != crc32.ChecksumIEEE(raw) {
			t.Fatalf("after %s: FileCRC %08x, file bytes %08x", step, df.FileCRC(), crc32.ChecksumIEEE(raw))
		}
		ix, err := LoadIndex(mem, "doc.d")
		if err != nil || *ix != *BuildIndex(raw) {
			t.Fatalf("after %s: sidecar %+v (%v) is not the index of the file", step, ix, err)
		}
	}
}

// FuzzEncodeEdited applies a fuzzed edit script to a fuzzed text and
// checks the encoding two ways: against the old path's bytes, and by
// re-reading it strictly. Parsed documents hold one piece; the script's
// edits are what make the encoder cross piece boundaries.
func FuzzEncodeEdited(f *testing.F) {
	f.Add("hello\nworld", []byte{0, 3, 200, 1, 5, 100, 2, 0, 255, 3, 9, 40})
	f.Add(strings.Repeat("long line ", 20)+"\n\\tab\t\x01é𝔘\n", []byte{0, 40, 128, 0, 7, 3, 1, 20, 64, 0, 90, 250})
	reg := newEditReg(f)
	f.Fuzz(func(t *testing.T, s string, script []byte) {
		d := text.New()
		d.SetRegistry(reg)
		if err := d.Insert(0, s); err != nil {
			return // the anchor rune enters only through Embed
		}
		at := func(b byte) int { return int(b) * (d.Len() + 1) / 256 }
		for ; len(script) >= 3; script = script[3:] {
			a, b := at(script[1]), at(script[2])
			switch script[0] % 4 {
			case 0: // insert a piece of s, sliced anywhere
				if len(s) > 0 {
					lo := int(script[1]) % len(s)
					_ = d.Insert(b, s[lo:min(len(s), lo+1+int(script[0]>>2))])
				}
			case 1:
				_ = d.Delete(b, min(int(script[1]%16), d.Len()-b))
			case 2:
				_ = d.SetStyle(min(a, b), max(a, b), "bold")
			case 3:
				if len(d.Embeds()) < 2 {
					_ = d.Embed(b, table.New(1, 2), "spread")
				}
			}
		}
		got, err := EncodeDocument(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeOldPath(t, d); !bytes.Equal(got, want) {
			t.Fatalf("streamed encoding differs from the old path\n got %q\nwant %q", got, want)
		}
		obj, err := core.ReadObject(datastream.NewReader(bytes.NewReader(got)), reg)
		if err != nil {
			t.Fatalf("strict re-read: %v\n%q", err, got)
		}
		back := obj.(*text.Data)
		if back.String() != d.String() || fmt.Sprint(back.Runs()) != fmt.Sprint(d.Runs()) ||
			len(back.Embeds()) != len(d.Embeds()) {
			t.Fatalf("re-read differs: %q %v, want %q %v", back.String(), back.Runs(), d.String(), d.Runs())
		}
	})
}
