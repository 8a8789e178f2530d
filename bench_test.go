package atk

// One benchmark per experiment in DESIGN.md's index (E1–E12), each
// regenerating a figure, snapshot, or quantified claim from the paper.
// EXPERIMENTS.md records paper-vs-measured for every entry.

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"atk/internal/anim"
	"atk/internal/chart"
	"atk/internal/class"
	"atk/internal/cmode"
	"atk/internal/components"
	"atk/internal/core"
	"atk/internal/datastream"
	"atk/internal/drawing"
	"atk/internal/eq"
	"atk/internal/graphics"
	"atk/internal/helpsys"
	"atk/internal/mail"
	"atk/internal/pageview"
	"atk/internal/printing"
	"atk/internal/script"
	"atk/internal/table"
	"atk/internal/tableview"
	"atk/internal/text"
	"atk/internal/textview"
	"atk/internal/widgets"
	"atk/internal/wsys"
	"atk/internal/wsys/memwin"
	"atk/internal/wsys/termwin"
)

func benchRegistry(b *testing.B) *class.Registry {
	b.Helper()
	reg, err := components.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	return reg
}

// paperTree builds the view tree of the figure on page 6: frame ->
// (scroll bar -> text (-> table)) + message line.
func paperTree(b *testing.B, reg *class.Registry) (*core.InteractionManager, wsys.InteractionWindow, *textview.View) {
	b.Helper()
	ws := memwin.New()
	win, err := ws.NewWindow("bench", 560, 360)
	if err != nil {
		b.Fatal(err)
	}
	im := core.NewInteractionManager(ws, win)
	doc := text.NewString("Dear David,\nEnclosed is a list of our expenses \n" +
		strings.Repeat("body line\n", 40))
	doc.SetRegistry(reg)
	tbl := table.New(3, 2)
	tbl.SetRegistry(reg)
	_ = tbl.SetNumber(0, 0, 1)
	_ = doc.Embed(45, tbl, "spread")
	tv := textview.New(reg)
	tv.SetDataObject(doc)
	im.SetChild(widgets.NewFrame(widgets.NewScrollView(tv)))
	im.FullRedraw()
	return im, win, tv
}

// --- E1: view tree event routing (figure p.6) ---

func BenchmarkE1EventRouting(b *testing.B) {
	reg := benchRegistry(b)
	im, win, _ := paperTree(b, reg)
	// Representative event mix: text click, scroll bar, divider, table.
	events := []wsys.Event{
		wsys.Click(120, 20), wsys.Release(120, 20),
		wsys.Click(6, 340), wsys.Release(6, 340),
		wsys.Click(200, 341), wsys.Drag(200, 320), wsys.Release(200, 320),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range events {
			win.Inject(ev)
		}
		im.DrainEvents()
	}
	b.ReportMetric(float64(im.EventsHandled)/float64(b.N), "events/op")
}

func BenchmarkE1RoutingDepth(b *testing.B) {
	// Event routing cost as nesting depth grows: parental authority is a
	// per-level decision, so cost should be linear in depth.
	for _, depth := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			ws := memwin.New()
			win, _ := ws.NewWindow("depth", 400, 300)
			im := core.NewInteractionManager(ws, win)
			var leafReg *class.Registry // no components needed
			_ = leafReg
			inner := core.View(nullLeaf())
			for i := 0; i < depth; i++ {
				inner = widgets.NewBorder(inner, 1)
			}
			im.SetChild(inner)
			im.FlushUpdates()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				win.Inject(wsys.Click(150, 150))
				win.Inject(wsys.Release(150, 150))
				im.DrainEvents()
			}
		})
	}
}

// nullLeaf is a minimal event-accepting view for routing benchmarks.
type leafView struct{ core.BaseView }

func nullLeaf() *leafView {
	v := &leafView{}
	v.InitView(v, "leaf")
	return v
}

func (v *leafView) Hit(a wsys.MouseAction, p graphics.Point, c int) core.View {
	return v.Self()
}

// --- E2: observer fanout / delayed update (§2) ---

func BenchmarkE2ObserverFanout(b *testing.B) {
	for _, fan := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("views=%d", fan), func(b *testing.B) {
			reg := benchRegistry(b)
			ws := memwin.New()
			win, _ := ws.NewWindow("fanout", 300, 200)
			im := core.NewInteractionManager(ws, win)
			doc := text.NewString(strings.Repeat("shared document line\n", 20))
			doc.SetRegistry(reg)
			views := make([]*textview.View, fan)
			for i := range views {
				views[i] = textview.New(reg)
				views[i].SetDataObject(doc)
				views[i].SetParent(im)
				views[i].SetBounds(graphics.XYWH(0, 0, 300, 200))
			}
			im.SetChild(views[0])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Insert+delete keeps the document size constant across
				// iterations so the measurement does not drift.
				_ = doc.Insert(0, "x")
				_ = doc.Delete(0, 1)
				im.FlushUpdates()
			}
		})
	}
}

// --- E3: chart observing table through an auxiliary data object (§2) ---

func BenchmarkE3ChartUpdate(b *testing.B) {
	reg := benchRegistry(b)
	tbl := table.New(8, 2)
	tbl.SetRegistry(reg)
	for i := 0; i < 8; i++ {
		_ = tbl.SetNumber(i, 1, float64(i+1))
	}
	cd := chart.New(tbl, 0, 1, 7, 1)
	ws := memwin.New()
	win, _ := ws.NewWindow("chart", 200, 160)
	im := core.NewInteractionManager(ws, win)
	cv := chart.NewView()
	cv.SetDataObject(cd)
	im.SetChild(cv)
	im.FullRedraw()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tbl.SetNumber(i%8, 1, float64(i%100))
		im.FlushUpdates()
	}
	_ = win
}

// --- E4: external representation round trip and skipping (§5) ---

func nestedDoc(reg *class.Registry, depth int) *text.Data {
	inner := text.NewString("leaf content")
	inner.SetRegistry(reg)
	cur := inner
	for i := 0; i < depth; i++ {
		outer := text.NewString("level text ")
		outer.SetRegistry(reg)
		_ = outer.Embed(outer.Len(), cur, "textview")
		cur = outer
	}
	return cur
}

func BenchmarkE4ExternalRep(b *testing.B) {
	for _, depth := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			reg := benchRegistry(b)
			doc := nestedDoc(reg, depth)
			var sb strings.Builder
			w := datastream.NewWriter(&sb)
			if _, err := core.WriteObject(w, doc); err != nil {
				b.Fatal(err)
			}
			_ = w.Close()
			stream := sb.String()
			b.SetBytes(int64(len(stream)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.ReadObject(datastream.NewReader(strings.NewReader(stream)), reg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE4SkipWithoutParsing(b *testing.B) {
	// Skipping an unknown deeply nested object must not parse payloads.
	reg := benchRegistry(b)
	doc := nestedDoc(reg, 16)
	var sb strings.Builder
	w := datastream.NewWriter(&sb)
	_, _ = w.Begin("mystery")
	_, _ = core.WriteObject(w, doc)
	_ = w.End()
	_ = w.Close()
	stream := sb.String()
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := datastream.NewReader(strings.NewReader(stream))
		tok, err := r.Next()
		if err != nil {
			b.Fatal(err)
		}
		if err := r.SkipObject(tok); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: dynamic loading on demand (§7) ---

func BenchmarkE5DynamicLoad(b *testing.B) {
	// The cost of opening a document whose component type is not resident:
	// demand load (unit init) + instantiate + parse.
	full := benchRegistry(b)
	tbl := table.New(4, 4)
	tbl.SetRegistry(full)
	_ = tbl.SetNumber(0, 0, 42)
	doc := text.NewString("see: ")
	doc.SetRegistry(full)
	_ = doc.Embed(5, tbl, "spread")
	var sb strings.Builder
	w := datastream.NewWriter(&sb)
	_, _ = core.WriteObject(w, doc)
	_ = w.Close()
	stream := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lean, err := components.NewRegistry()
		if err != nil {
			b.Fatal(err)
		}
		_ = lean.Load(components.UnitText)
		if _, err := core.ReadObject(datastream.NewReader(strings.NewReader(stream)), lean); err != nil {
			b.Fatal(err)
		}
		if !lean.IsLoaded(components.UnitTable) {
			b.Fatal("table unit not loaded")
		}
	}
}

// --- E6: runapp sharing (§7's five claims) ---

func BenchmarkE6RunappSharing(b *testing.B) {
	apps := []class.AppSpec{
		{Name: "ez", Units: []string{components.UnitText, components.UnitTable,
			components.UnitChart, components.UnitDrawing, components.UnitEq,
			components.UnitRaster, components.UnitAnim}},
		{Name: "messages", Units: []string{components.UnitText, components.UnitDrawing,
			components.UnitRaster}},
		{Name: "help", Units: []string{components.UnitText}},
		{Name: "typescript", Units: []string{components.UnitText}},
		{Name: "console", Units: nil},
		{Name: "preview", Units: []string{components.UnitText}},
	}
	var shared, standalone int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, err := components.NewRegistry()
		if err != nil {
			b.Fatal(err)
		}
		l, err := class.NewLauncher(reg, []string{components.UnitBase})
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range apps {
			if _, err := l.Launch(app); err != nil {
				b.Fatal(err)
			}
		}
		shared = l.ResidentSize()
		standalone, err = class.StandaloneCost(reg, []string{components.UnitBase}, apps)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(shared), "shared-bytes")
	b.ReportMetric(float64(standalone), "standalone-bytes")
	b.ReportMetric(float64(standalone)/float64(shared), "reduction-x")
}

// --- E7: window system independence (§8) ---

func BenchmarkE7Backends(b *testing.B) {
	scene := func(g graphics.Graphic) {
		d := graphics.NewDrawable(g)
		d.ClearRect(graphics.XYWH(0, 0, 400, 300))
		d.FillRect(graphics.XYWH(10, 10, 100, 60))
		d.DrawLine(graphics.Pt(0, 0), graphics.Pt(399, 299))
		d.DrawOval(graphics.XYWH(150, 50, 120, 80))
		d.SetFontDesc(graphics.DefaultFont)
		d.DrawString(graphics.Pt(20, 200), "window system independence")
		d.DrawPolyline([]graphics.Point{{X: 300, Y: 200}, {X: 350, Y: 250}, {X: 300, Y: 280}}, true)
	}
	b.Run("memwin", func(b *testing.B) {
		ws := memwin.New()
		win, _ := ws.NewWindow("b", 400, 300)
		for i := 0; i < b.N; i++ {
			scene(win.Graphic())
		}
	})
	b.Run("termwin", func(b *testing.B) {
		ws := termwin.New()
		win, _ := ws.NewWindow("b", 400, 300)
		for i := 0; i < b.N; i++ {
			scene(win.Graphic())
		}
	})
}

// --- E8: the Pascal's Triangle compound document (snapshot 5) ---

func buildPascalDoc(b *testing.B, reg *class.Registry) *text.Data {
	b.Helper()
	doc := text.NewString("Pascal's Triangle\n\nintro text\n\nThe End\n")
	doc.SetRegistry(reg)
	outer := table.New(4, 2)
	outer.SetRegistry(reg)
	note := text.NewString("several descriptions of Pascal's Triangle")
	note.SetRegistry(reg)
	_ = outer.SetEmbed(0, 0, note, "textview")
	_ = outer.SetEmbed(1, 0, eq.New("v_{i,j} = v_{i-1,j} + v_{i-1,j-1}"), "eqview")
	a := anim.New(1)
	for f := 1; f <= 5; f++ {
		var items []*drawing.Item
		for r := 0; r < f; r++ {
			items = append(items, &drawing.Item{Kind: drawing.Line,
				P1: graphics.Pt(10*r, 5*r), P2: graphics.Pt(10*r+8, 5*r), Width: 1})
		}
		_ = a.AddFrame(items)
	}
	_ = outer.SetEmbed(2, 0, a, "animview")
	sheet := table.New(6, 6)
	sheet.SetRegistry(reg)
	_ = sheet.SetNumber(0, 0, 1)
	for r := 1; r < 6; r++ {
		_ = sheet.SetNumber(r, 0, 1)
		for c := 1; c <= r; c++ {
			_ = sheet.SetFormula(r, c, "="+table.CellName(r-1, c-1)+"+"+table.CellName(r-1, c))
		}
	}
	_ = outer.SetEmbed(3, 1, sheet, "spread")
	_ = doc.Embed(19, outer, "spread")
	return doc
}

func BenchmarkE8CompoundDoc(b *testing.B) {
	reg := benchRegistry(b)
	ws := memwin.New()
	win, _ := ws.NewWindow("pascal", 640, 480)
	im := core.NewInteractionManager(ws, win)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := buildPascalDoc(b, reg)
		tv := textview.New(reg)
		tv.SetDataObject(doc)
		im.SetChild(tv)
		im.FullRedraw()
	}
}

func BenchmarkE8CompoundDocRoundTrip(b *testing.B) {
	reg := benchRegistry(b)
	doc := buildPascalDoc(b, reg)
	var sb strings.Builder
	w := datastream.NewWriter(&sb)
	_, _ = core.WriteObject(w, doc)
	_ = w.Close()
	stream := sb.String()
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReadObject(datastream.NewReader(strings.NewReader(stream)), reg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: campus-scale mail (snapshots 3–4) ---

func BenchmarkE9MailCorpus(b *testing.B) {
	reg := benchRegistry(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := mail.NewStore(reg)
		if _, err := mail.Generate(store, mail.SnapshotSpec); err != nil {
			b.Fatal(err)
		}
		if store.Len() != 1414 {
			b.Fatalf("folders = %d", store.Len())
		}
	}
}

func BenchmarkE9MessageRoundTrip(b *testing.B) {
	reg := benchRegistry(b)
	body := text.NewString("Knowing your fondness for big cats...\n")
	body.SetRegistry(reg)
	dw := drawing.New()
	dw.SetRegistry(reg)
	_ = dw.Add(&drawing.Item{Kind: drawing.Rectangle, P1: graphics.Pt(0, 0),
		P2: graphics.Pt(60, 30), Width: 1})
	_ = body.Embed(body.Len(), dw, "")
	m := &mail.Message{From: "nsb", Subject: "Big Cat", Date: "11-Feb-88", Body: body}
	var sb strings.Builder
	w := datastream.NewWriter(&sb)
	_ = mail.WriteMessage(w, m)
	_ = w.Close()
	stream := sb.String()
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mail.ReadMessage(datastream.NewReader(strings.NewReader(stream)), reg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9b: text hot path — indexed piece table, cursors, lazy layout ---

// editedDoc builds a document of n hard lines, then applies 1000
// scattered single-word edits so the piece table is realistically
// fragmented (~1000 pieces), the shape the indexes exist for.
func editedDoc(b *testing.B, reg *class.Registry, n int) *text.Data {
	b.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "the quick brown fox jumps over line %d\n", i)
	}
	d := text.NewString(sb.String())
	d.SetRegistry(reg)
	d.WithoutUndo(func() {
		step := d.Len() / 1001
		if step < 1 {
			step = 1
		}
		for i := 0; i < 1000; i++ {
			if err := d.Insert((i*step)%(d.Len()+1), "edit "); err != nil {
				b.Fatal(err)
			}
		}
	})
	return d
}

// BenchmarkE9TextIndexing quantifies the indexed text layer: point
// lookups and line queries on a fragmented buffer, cursor iteration, and
// full- versus viewport-lazy relayout. The Scan/Full variants replicate
// the pre-index algorithms as baselines; benchjson derives the speedup
// pairs into BENCH_text.json.
func BenchmarkE9TextIndexing(b *testing.B) {
	reg := benchRegistry(b)

	b.Run("PointLookup", func(b *testing.B) {
		d := editedDoc(b, reg, 10000)
		n := d.Len()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.RuneAt((i * 7919) % n); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("SequentialScan", func(b *testing.B) {
		d := editedDoc(b, reg, 10000)
		b.SetBytes(int64(d.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := d.Cursor(0)
			runes := 0
			for {
				if _, ok := c.Next(); !ok {
					break
				}
				runes++
			}
			if runes != d.Len() {
				b.Fatalf("scanned %d of %d", runes, d.Len())
			}
		}
	})

	b.Run("LineStartIndexed", func(b *testing.B) {
		d := editedDoc(b, reg, 100000)
		end := d.Len() - 1 // inside the last content line
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d.LineStart(end) <= 0 {
				b.Fatal("bogus line start")
			}
		}
	})

	b.Run("LineStartScanBaseline", func(b *testing.B) {
		// The pre-index algorithm: walk backwards rune by rune with
		// RuneAt until a newline. (Conservative baseline — the original
		// RuneAt was additionally a linear piece walk.)
		d := editedDoc(b, reg, 100000)
		end := d.Len() - 1 // inside the last content line
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pos := end
			for pos > 0 {
				r, err := d.RuneAt(pos - 1)
				if err != nil || r == '\n' {
					break
				}
				pos--
			}
			if pos <= 0 {
				b.Fatal("bogus line start")
			}
		}
	})

	relayout := func(nLines int, viewport bool) func(*testing.B) {
		return func(b *testing.B) {
			d := editedDoc(b, reg, nLines)
			v := textview.New(reg)
			v.SetDataObject(d)
			v.SetBounds(graphics.XYWH(0, 0, 560, 360))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.InvalidateLayout()
				if viewport {
					v.LayoutViewport()
				} else {
					if v.Lines() < nLines {
						b.Fatal("layout lost lines")
					}
				}
			}
		}
	}
	b.Run("RelayoutFull10k", relayout(10000, false))
	b.Run("RelayoutViewport10k", relayout(10000, true))
	b.Run("RelayoutFull100k", relayout(100000, false))
	b.Run("RelayoutViewport100k", relayout(100000, true))

	// One keystroke and its undoing at the middle line, on a small and a
	// large document: the text edit alone, and the edit plus the repair
	// of a laid-out text view scrolled to it (no interaction manager, so
	// no flush). benchjson derives the large/small ratios, which slogate
	// holds near 1: a keystroke must not cost more in a bigger document.
	edit := func(nLines int, view bool) func(*testing.B) {
		var d *text.Data
		return func(b *testing.B) {
			if d == nil { // build once across the b.N rounds
				d = editedDoc(b, reg, nLines)
				if view {
					v := textview.New(reg)
					v.SetDataObject(d)
					v.SetBounds(graphics.XYWH(0, 0, 560, 360))
					v.ScrollTo(v.Lines() / 2)
				}
			}
			pos := d.LineEnd(d.LineStart(d.Len() / 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Insert(pos, "x"); err != nil {
					b.Fatal(err)
				}
				if err := d.Delete(pos, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("EditData2k", edit(2000, false))
	b.Run("EditData200k", edit(200000, false))
	b.Run("EditView2k", edit(2000, true))
	b.Run("EditView200k", edit(200000, true))
}

// --- E10: deployment scale (§9: 3000 users; EZ displacing emacs) ---

func BenchmarkE10Scale(b *testing.B) {
	// 3000 concurrent editing sessions: one document + view pair each,
	// all receiving an edit per round.
	const users = 3000
	reg := benchRegistry(b)
	docs := make([]*text.Data, users)
	views := make([]*textview.View, users)
	for i := range docs {
		docs[i] = text.NewString("session document\n")
		docs[i].SetRegistry(reg)
		views[i] = textview.New(reg)
		views[i].SetDataObject(docs[i])
		views[i].SetBounds(graphics.XYWH(0, 0, 300, 100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % users
		_ = docs[u].Insert(0, "k")
		_ = docs[u].Delete(0, 1) // keep session documents a constant size
		views[u].Lines()         // force relayout, as the update cycle would
	}
	b.ReportMetric(users, "sessions")
}

func BenchmarkE10CMode(b *testing.B) {
	// Program editing with the C component: full restyle of a source file
	// per edit (what replaced emacs for ITC programmers).
	src := strings.Repeat(`static int view_Hit(struct view *v, long x) {
    /* parental authority */ return x > 0 ? 1 : 0;
}
`, 40)
	d := text.NewString(src)
	s := cmode.Attach(d)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Insert(0, "/*x*/")
		_ = d.Delete(0, 5)
	}
	b.ReportMetric(float64(s.Restyles)/float64(b.N), "restyles/op")
}

// --- E11: help browsing (snapshot 2) ---

func BenchmarkE11Help(b *testing.B) {
	corpus := helpsys.StandardCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := helpsys.NewSession(corpus)
		if _, err := sess.Visit("ez"); err != nil {
			b.Fatal(err)
		}
		doc := sess.Current()
		for _, rel := range doc.Related {
			_, _ = sess.Visit(rel)
			sess.Back()
		}
		if hits := corpus.Search("editor"); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// --- E12: printing by drawable redirection (§4) ---

func BenchmarkE12Print(b *testing.B) {
	reg := benchRegistry(b)
	doc := buildPascalDoc(b, reg)
	tv := textview.New(reg)
	tv.SetDataObject(doc)
	tv.SetBounds(graphics.XYWH(0, 0, 480, 640))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := printing.Print(tv, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- supporting micro-benchmarks (ablations called out in DESIGN.md) ---

func BenchmarkPieceTableInsert(b *testing.B) {
	d := text.NewString(strings.Repeat("x", 10_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Insert(d.Len()/2, "x")
		_ = d.Delete(d.Len()/2, 1) // constant size; exercises both paths
		if d.PieceCount() > 4096 {
			d.Compact()
		}
	}
}

func BenchmarkFormulaRecalc(b *testing.B) {
	// A 20-deep dependency chain recalculated per edit.
	d := table.New(20, 2)
	_ = d.SetNumber(0, 0, 1)
	for r := 1; r < 20; r++ {
		_ = d.SetFormula(r, 0, "="+table.CellName(r-1, 0)+"*2")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.SetNumber(0, 0, float64(i))
	}
}

func BenchmarkRegionUnion(b *testing.B) {
	rects := make([]graphics.Rect, 64)
	for i := range rects {
		rects[i] = graphics.XYWH((i%8)*20, (i/8)*20, 30, 30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graphics.EmptyRegion()
		for _, r := range rects {
			g = g.UnionRect(r)
		}
		if g.Area() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTextLayout(b *testing.B) {
	reg := benchRegistry(b)
	doc := text.NewString(strings.Repeat("the quick brown fox jumps over the lazy dog ", 200))
	doc.SetRegistry(reg)
	_ = doc.SetStyle(100, 400, "bold")
	tv := textview.New(reg)
	tv.SetDataObject(doc)
	tv.SetBounds(graphics.XYWH(0, 0, 500, 400))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = doc.Insert(0, " ") // invalidate
		_ = doc.Delete(0, 1)
		tv.Lines()
	}
}

func BenchmarkSpreadRender(b *testing.B) {
	reg := benchRegistry(b)
	tbl := table.New(20, 8)
	tbl.SetRegistry(reg)
	for r := 0; r < 20; r++ {
		for c := 0; c < 8; c++ {
			_ = tbl.SetNumber(r, c, float64(r*c))
		}
	}
	ws := memwin.New()
	win, _ := ws.NewWindow("spread", 600, 400)
	im := core.NewInteractionManager(ws, win)
	sv := tableview.New(reg)
	sv.SetDataObject(tbl)
	im.SetChild(sv)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.FullRedraw()
	}
}

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationCoalescing quantifies the delayed-update design (§2):
// the same 16-edit burst repainted once per burst (the toolkit's
// behaviour) versus once per edit (the naive alternative the paper's
// design avoids).
func BenchmarkAblationCoalescing(b *testing.B) {
	setup := func(b *testing.B) (*core.InteractionManager, *text.Data) {
		reg := benchRegistry(b)
		ws := memwin.New()
		win, _ := ws.NewWindow("coalesce", 400, 300)
		im := core.NewInteractionManager(ws, win)
		doc := text.NewString(strings.Repeat("paragraph text for the ablation\n", 30))
		doc.SetRegistry(reg)
		tv := textview.New(reg)
		tv.SetDataObject(doc)
		im.SetChild(tv)
		im.FullRedraw()
		return im, doc
	}
	b.Run("coalesced", func(b *testing.B) {
		im, doc := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 16; k++ {
				_ = doc.Insert(0, "x")
			}
			_ = doc.Delete(0, 16) // keep the document a constant size
			im.FlushUpdates()
		}
	})
	b.Run("immediate", func(b *testing.B) {
		im, doc := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 16; k++ {
				_ = doc.Insert(0, "x")
				im.FlushUpdates()
			}
			_ = doc.Delete(0, 16)
			im.FlushUpdates()
		}
	})
}

// BenchmarkAblationPieceTable compares the piece table against a naive
// []rune splice buffer for mid-buffer insertion at document sizes.
func BenchmarkAblationPieceTable(b *testing.B) {
	const docSize = 50_000
	b.Run("piecetable", func(b *testing.B) {
		d := text.NewString(strings.Repeat("x", docSize))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = d.Insert(docSize/2, "y")
			_ = d.Delete(docSize/2, 1)
			if d.PieceCount() > 4096 {
				d.Compact()
			}
		}
	})
	b.Run("runeslice", func(b *testing.B) {
		buf := []rune(strings.Repeat("x", docSize))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mid := len(buf) / 2
			buf = append(buf[:mid], append([]rune{'y'}, buf[mid:]...)...)
			buf = append(buf[:mid], buf[mid+1:]...)
		}
	})
}

// BenchmarkPageview measures the WYSIWYG view's full repagination of a
// multi-page styled document (the §2 paper-based view).
func BenchmarkPageview(b *testing.B) {
	reg := benchRegistry(b)
	doc := text.NewString(strings.Repeat("a paragraph of printable body text that wraps\n", 300))
	doc.SetRegistry(reg)
	_ = doc.SetStyle(0, 11, "title")
	pv := pageview.New(reg)
	pv.SetDataObject(doc)
	pv.SetBounds(graphics.XYWH(0, 0, pageview.PageW+16, pageview.PageH+16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = doc.Insert(0, " ")
		_ = doc.Delete(0, 1)
		if pv.Pages() < 2 {
			b.Fatal("did not paginate")
		}
	}
}

// BenchmarkUndoRedo measures the edit journal: an insert, its undo, and
// its redo (three journal operations on a mid-size buffer).
func BenchmarkUndoRedo(b *testing.B) {
	d := text.NewString(strings.Repeat("x", 10_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Insert(5000, "edit")
		if !d.Undo() {
			b.Fatal("undo failed")
		}
		if !d.Redo() {
			b.Fatal("redo failed")
		}
		if !d.Undo() { // keep the buffer stable across iterations
			b.Fatal("undo failed")
		}
	}
}

// BenchmarkRichClipboard measures component-carrying cut/paste: the
// selection is serialized to the external representation and parsed back.
func BenchmarkRichClipboard(b *testing.B) {
	reg := benchRegistry(b)
	src := text.NewString("prefix  suffix")
	src.SetRegistry(reg)
	tbl := table.New(3, 3)
	tbl.SetRegistry(reg)
	_ = tbl.SetNumber(0, 0, 1)
	_ = src.Embed(7, tbl, "spread")
	v1 := textview.New(reg)
	v1.SetDataObject(src)
	v1.SetBounds(graphics.XYWH(0, 0, 300, 100))
	dst := text.NewString("")
	dst.SetRegistry(reg)
	v2 := textview.New(reg)
	v2.SetDataObject(dst)
	v2.SetBounds(graphics.XYWH(0, 0, 300, 100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v1.SetSelection(6, 9)
		v1.Copy()
		v2.SetDot(0)
		v2.Paste()
		_ = dst.Delete(0, dst.Len()) // constant-size target
	}
}

// BenchmarkScriptDriver measures the event-script harness end to end.
func BenchmarkScriptDriver(b *testing.B) {
	reg := benchRegistry(b)
	im, _, _ := paperTree(b, reg)
	src := "click 120 20\ntype ab\nkey backspace\nmenu Edit/Copy\n"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := script.Run(im, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHelpBrowser measures a browse step in the interactive help
// view: visit, repaint, back.
func BenchmarkHelpBrowser(b *testing.B) {
	reg := benchRegistry(b)
	sess := helpsys.NewSession(helpsys.StandardCorpus())
	v, err := helpsys.NewView(reg, sess, "ez")
	if err != nil {
		b.Fatal(err)
	}
	ws := memwin.New()
	win, _ := ws.NewWindow("help", 520, 300)
	im := core.NewInteractionManager(ws, win)
	im.SetChild(v)
	im.FullRedraw()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Visit("messages")
		im.FlushUpdates()
		sess.Back()
		im.FlushUpdates()
	}
}

// BenchmarkIncrementalEdit quantifies the damage-region repaint pipeline:
// a one-character edit in a 10,000-line document, flushed either through
// the incremental line-repair path (region damage) or the whole-bounds
// fallback. The pixels/flush metric counts framebuffer writes per flush;
// the damage path must touch only the edited line's strip rather than the
// whole window.
func BenchmarkIncrementalEdit(b *testing.B) {
	const line = "ten thousand line document body text\n"
	for _, mode := range []struct {
		name        string
		incremental bool
	}{{"damage", true}, {"full", false}} {
		b.Run(mode.name, func(b *testing.B) {
			reg := benchRegistry(b)
			ws := memwin.New()
			win, err := ws.NewWindow("edit", 560, 360)
			if err != nil {
				b.Fatal(err)
			}
			im := core.NewInteractionManager(ws, win)
			doc := text.NewString(strings.Repeat(line, 10000))
			doc.SetRegistry(reg)
			tv := textview.New(reg)
			tv.SetDataObject(doc)
			tv.SetIncremental(mode.incremental)
			im.SetChild(tv)
			im.FullRedraw()

			g := win.(*memwin.Window).Raster()
			g.ResetCounters()
			pos := 3*len(line) + 5 // mid-word on a visible line
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := doc.Insert(pos, "x"); err != nil {
					b.Fatal(err)
				}
				im.FlushUpdates()
				if err := doc.Delete(pos, 1); err != nil {
					b.Fatal(err)
				}
				im.FlushUpdates()
			}
			b.StopTimer()
			b.ReportMetric(float64(g.PixelsTouched())/float64(2*b.N), "pixels/flush")
		})
	}
}
