package atk

// Tests backing the experiments of DESIGN.md that assert structure rather
// than speed: E7 (window-system independence and port surface) and E12
// (printing by drawable redirection), plus the cross-backend application
// equivalence check.

import (
	"reflect"
	"strings"
	"testing"

	"atk/internal/components"
	"atk/internal/core"
	"atk/internal/graphics"
	"atk/internal/printing"
	"atk/internal/text"
	"atk/internal/textview"
	"atk/internal/widgets"
	"atk/internal/wsys"
	"atk/internal/wsys/memwin"
	"atk/internal/wsys/termwin"
)

// TestE1RoutingAllocatesNothing: routing a click and its release down a
// view tree and running the update cycle allocates nothing, at any depth
// (EXPERIMENTS E1). The interaction manager's panic barrier names the
// event it guards only after a panic.
func TestE1RoutingAllocatesNothing(t *testing.T) {
	for _, depth := range []int{1, 16} {
		ws := memwin.New()
		win, _ := ws.NewWindow("depth", 400, 300)
		im := core.NewInteractionManager(ws, win)
		inner := core.View(nullLeaf())
		for i := 0; i < depth; i++ {
			inner = widgets.NewBorder(inner, 1)
		}
		im.SetChild(inner)
		im.FlushUpdates()
		allocs := testing.AllocsPerRun(100, func() {
			win.Inject(wsys.Click(150, 150))
			win.Inject(wsys.Release(150, 150))
			im.DrainEvents()
		})
		if allocs != 0 {
			t.Errorf("depth %d: routing a click and release made %.1f allocations, want 0", depth, allocs)
		}
	}
}

// TestE7PortSurface counts the methods of the six porting classes (paper
// §8: "six classes must be written, encompassing approximately 70
// routines ... about 50 are normally simple transformations to the
// graphics layer"). Our port surface is smaller than the original's ~70
// because the shared rasterizer removes per-port glyph and arc code; the
// claim under test is that the surface is small and graphics-dominated.
func TestE7PortSurface(t *testing.T) {
	count := func(v any) int { return reflect.TypeOf(v).Elem().NumMethod() }
	surface := map[string]int{
		"WindowSystem":      count((*wsys.WindowSystem)(nil)),
		"InteractionWindow": count((*wsys.InteractionWindow)(nil)),
		"Cursor":            count((*wsys.Cursor)(nil)),
		"Graphic":           count((*graphics.Graphic)(nil)),
		"FontRenderer":      count((*wsys.FontRenderer)(nil)),
		"OffScreenWindow":   count((*wsys.OffScreenWindow)(nil)),
	}
	total := 0
	for name, n := range surface {
		if n == 0 {
			t.Errorf("porting class %s has no methods", name)
		}
		total += n
		t.Logf("porting class %-18s %2d routines", name, n)
	}
	t.Logf("total port surface: %d routines across %d classes (paper: ~70 across 6)",
		total, len(surface))
	if len(surface) != 6 {
		t.Fatalf("porting classes = %d, want 6", len(surface))
	}
	if total < 30 || total > 90 {
		t.Fatalf("port surface = %d routines; expected the same order as the paper's ~70", total)
	}
	// The graphics class is the largest, as the paper says ("about 50
	// routines are normally simple transformations to the graphics layer").
	for name, n := range surface {
		if name != "Graphic" && n >= surface["Graphic"] {
			t.Errorf("class %s (%d) outweighs Graphic (%d)", name, n, surface["Graphic"])
		}
	}
}

// TestE7ApplicationRunsOnBothBackends runs the same application scene on
// both window systems with no code changes — the paper's "currently able
// to run applications on two different window systems without any
// recompilation".
func TestE7ApplicationRunsOnBothBackends(t *testing.T) {
	for _, backend := range []string{"memwin", "termwin"} {
		t.Run(backend, func(t *testing.T) {
			t.Setenv(wsys.EnvVar, backend) // the paper's environment-variable selection
			ws, err := wsys.Open("")
			if err != nil {
				t.Fatal(err)
			}
			defer ws.Close()
			if ws.Name() != backend {
				t.Fatalf("selected %q", ws.Name())
			}
			reg, err := components.StandardRegistry()
			if err != nil {
				t.Fatal(err)
			}
			win, err := ws.NewWindow("both", 480, 320)
			if err != nil {
				t.Fatal(err)
			}
			im := core.NewInteractionManager(ws, win)
			doc := text.NewString("The same application,\nrunning on " + backend + ".\n")
			doc.SetRegistry(reg)
			tv := textview.New(reg)
			tv.SetDataObject(doc)
			im.SetChild(widgets.NewFrame(widgets.NewScrollView(tv)))
			im.FullRedraw()

			// Identical interaction works identically.
			win.Inject(wsys.Click(100, 10))
			win.Inject(wsys.Release(100, 10))
			win.Inject(wsys.KeyPress('!'))
			im.DrainEvents()
			if !strings.Contains(doc.String(), "!") {
				t.Fatal("typing did not edit the document")
			}
			// And output is visible on either medium.
			switch w := win.(type) {
			case *memwin.Window:
				snap := w.Snapshot()
				if snap.Count(snap.Bounds(), graphics.Black) < 50 {
					t.Fatal("nothing rendered on memwin")
				}
			case *termwin.Window:
				if !w.Screen().FindText("running on termwin") {
					t.Fatalf("text not on termwin screen:\n%s", w.Screen().Dump())
				}
			}
		})
	}
}

// TestE7LayoutAgreesAcrossBackends verifies that, because font metrics are
// device-independent, the same document lays out to the same line breaks
// on both window systems (which is what makes one codebase serve both).
func TestE7LayoutAgreesAcrossBackends(t *testing.T) {
	reg, _ := components.StandardRegistry()
	lines := func(backend string) int {
		ws, _ := wsys.Open(backend)
		defer ws.Close()
		win, _ := ws.NewWindow("m", 400, 300)
		im := core.NewInteractionManager(ws, win)
		doc := text.NewString(strings.Repeat("wrap me around please ", 30))
		doc.SetRegistry(reg)
		tv := textview.New(reg)
		tv.SetDataObject(doc)
		im.SetChild(tv)
		im.FullRedraw()
		return tv.Lines()
	}
	m, tw := lines("memwin"), lines("termwin")
	if m != tw {
		t.Fatalf("layout diverged: memwin %d lines, termwin %d lines", m, tw)
	}
}

// TestE12PrintingStructure checks §4's printing mechanism: redirecting a
// view's drawable to a printer device captures the same structure the
// screen shows — every visible text line appears in the command stream.
func TestE12PrintingStructure(t *testing.T) {
	reg, _ := components.StandardRegistry()
	doc := text.NewString("line one\nline two\nline three")
	doc.SetRegistry(reg)
	tv := textview.New(reg)
	tv.SetDataObject(doc)
	tv.SetBounds(graphics.XYWH(0, 0, 400, 200))

	var out strings.Builder
	if err := printing.Print(tv, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"line one"`, `"line two"`, `"line three"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("printed stream missing %s", want)
		}
	}
	// The printed stream is 7-bit text (device independence all the way).
	for i := 0; i < len(out.String()); i++ {
		if c := out.String()[i]; c != '\n' && c != '\t' && (c < 32 || c > 126) {
			t.Fatalf("non-ASCII byte %#x in print stream", c)
		}
	}
	// The same view still renders on screen afterwards: printing did not
	// disturb it (it "temporarily" used another drawable).
	ws, _ := wsys.Open("memwin")
	defer ws.Close()
	win, _ := ws.NewWindow("after", 400, 200)
	im := core.NewInteractionManager(ws, win)
	im.SetChild(tv)
	im.FullRedraw()
	snap := win.(*memwin.Window).Snapshot()
	if snap.Count(snap.Bounds(), graphics.Black) < 20 {
		t.Fatal("view broken after printing")
	}
}

// TestE7TwoWindowSystemsSimultaneously exercises §8's closing remark:
// "with a little more restructuring ... it will be possible to actually
// open windows on two different window systems at the same time." Our
// restructuring is done: one process, one document, one registry — one
// window on each backend, edits visible on both.
func TestE7TwoWindowSystemsSimultaneously(t *testing.T) {
	reg, _ := components.StandardRegistry()
	doc := text.NewString("one document,\ntwo window systems.\n")
	doc.SetRegistry(reg)

	wsA, err := wsys.Open("memwin")
	if err != nil {
		t.Fatal(err)
	}
	defer wsA.Close()
	wsB, err := wsys.Open("termwin")
	if err != nil {
		t.Fatal(err)
	}
	defer wsB.Close()

	winA, _ := wsA.NewWindow("raster side", 320, 200)
	winB, _ := wsB.NewWindow("cell side", 320, 200)
	imA := core.NewInteractionManager(wsA, winA)
	imB := core.NewInteractionManager(wsB, winB)
	tvA := textview.New(reg)
	tvA.SetDataObject(doc)
	imA.SetChild(tvA)
	tvB := textview.New(reg)
	tvB.SetDataObject(doc)
	imB.SetChild(tvB)
	imA.FullRedraw()
	imB.FullRedraw()

	// Type into the memwin window; the termwin window shows the change.
	winA.Inject(wsys.Click(1, 5))
	winA.Inject(wsys.Release(1, 5))
	for _, r := range "LIVE " {
		winA.Inject(wsys.KeyPress(r))
	}
	imA.DrainEvents()
	imB.FlushUpdates()
	tw := winB.(*termwin.Window)
	if !tw.Screen().FindText("LIVE") {
		t.Fatalf("edit not visible on the other window system:\n%s", tw.Screen().Dump())
	}
	mw := winA.(*memwin.Window)
	snap := mw.Snapshot()
	if snap.Count(snap.Bounds(), graphics.Black) < 20 {
		t.Fatal("raster side blank")
	}
}
