package typescript

import (
	"strings"
	"testing"

	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/text"
	"atk/internal/textview"
	"atk/internal/widgets"
	"atk/internal/wsys"
	"atk/internal/wsys/memwin"
)

func setupView(t *testing.T) (*core.InteractionManager, *memwin.Window, *View) {
	t.Helper()
	reg := class.NewRegistry()
	if err := text.Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := textview.Register(reg); err != nil {
		t.Fatal(err)
	}
	ws := memwin.New()
	win, err := ws.NewWindow("ts", 400, 240)
	if err != nil {
		t.Fatal(err)
	}
	im := core.NewInteractionManager(ws, win)
	v := NewView(reg, NewSession())
	im.SetChild(v)
	im.FullRedraw()
	return im, win.(*memwin.Window), v
}

func typeLine(win *memwin.Window, s string) {
	for _, r := range s {
		win.Inject(wsys.KeyPress(r))
	}
	win.Inject(wsys.KeyDownEvent(wsys.KeyReturn))
}

func TestInteractiveCommand(t *testing.T) {
	im, win, v := setupView(t)
	win.Inject(wsys.Click(50, 50))
	win.Inject(wsys.Release(50, 50))
	typeLine(win, "echo interactive shell")
	im.DrainEvents()
	tr := v.Session().Transcript().String()
	if !strings.Contains(tr, "interactive shell\n") {
		t.Fatalf("transcript = %q", tr)
	}
	if !strings.HasSuffix(tr, Prompt) {
		t.Fatal("no fresh prompt")
	}
	if v.Inner().Dot() != v.Session().Transcript().Len() {
		t.Fatal("caret not at prompt")
	}
}

func TestBackspaceCannotCrossPrompt(t *testing.T) {
	im, win, v := setupView(t)
	win.Inject(wsys.Click(50, 50))
	win.Inject(wsys.Release(50, 50))
	before := v.Session().Transcript().String()
	// Backspace with nothing typed: the prompt survives.
	for i := 0; i < 5; i++ {
		win.Inject(wsys.KeyDownEvent(wsys.KeyBackspace))
	}
	im.DrainEvents()
	if v.Session().Transcript().String() != before {
		t.Fatalf("prompt eroded: %q", v.Session().Transcript().String())
	}
	// Typing then backspacing one char works.
	win.Inject(wsys.KeyPress('l'))
	win.Inject(wsys.KeyPress('s'))
	win.Inject(wsys.KeyDownEvent(wsys.KeyBackspace))
	im.DrainEvents()
	if v.Session().Pending() != "l" {
		t.Fatalf("pending = %q", v.Session().Pending())
	}
}

func TestTypingSnapsToCommandLine(t *testing.T) {
	im, win, v := setupView(t)
	win.Inject(wsys.Click(50, 50))
	win.Inject(wsys.Release(50, 50))
	im.DrainEvents()
	// Move the caret into the history region, then type: input lands at
	// the command line, not in history.
	v.Inner().SetDot(0)
	win.Inject(wsys.KeyPress('d'))
	win.Inject(wsys.KeyPress('f'))
	im.DrainEvents()
	if v.Session().Pending() != "df" {
		t.Fatalf("pending = %q", v.Session().Pending())
	}
	if !strings.HasPrefix(v.Session().Transcript().String(), "Andrew") {
		t.Fatal("history corrupted")
	}
}

func TestSequencedCommandsKeepState(t *testing.T) {
	im, win, v := setupView(t)
	win.Inject(wsys.Click(50, 50))
	win.Inject(wsys.Release(50, 50))
	typeLine(win, "cd papers")
	typeLine(win, "pwd")
	im.DrainEvents()
	if !strings.Contains(v.Session().Transcript().String(), "/usr/andy/papers") {
		t.Fatalf("transcript = %q", v.Session().Transcript().String())
	}
}

func TestTickAdvancesClock(t *testing.T) {
	im, win, v := setupView(t)
	win.Inject(wsys.Event{Kind: wsys.TickEvent, Tick: 7200})
	im.DrainEvents()
	win.Inject(wsys.Click(50, 50))
	win.Inject(wsys.Release(50, 50))
	typeLine(win, "date")
	im.DrainEvents()
	if !strings.Contains(v.Session().Transcript().String(), "12:00:00") {
		t.Fatalf("transcript = %q", v.Session().Transcript().String())
	}
}

func TestShellMenu(t *testing.T) {
	im, win, v := setupView(t)
	win.Inject(wsys.Click(50, 50))
	win.Inject(wsys.Release(50, 50))
	typeLine(win, "echo one")
	im.DrainEvents()
	if _, ok := im.Menus().Lookup("Shell", "Run Line"); !ok {
		t.Fatal("shell menu missing")
	}
	win.Inject(wsys.Event{Kind: wsys.MenuEvent, MenuPath: "Shell/History"})
	im.DrainEvents()
	if !strings.Contains(im.Message(), "echo one") {
		// The frame is absent, so the message lands at the IM.
		t.Fatalf("message = %q", im.Message())
	}
	_ = v
}

func TestRegisterViewClass(t *testing.T) {
	reg := class.NewRegistry()
	_ = text.Register(reg)
	_ = textview.Register(reg)
	if err := RegisterView(reg); err != nil {
		t.Fatal(err)
	}
	obj, err := reg.NewObject("typescriptview")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.(*View); !ok {
		t.Fatalf("got %T", obj)
	}
}

// TestScrollBarFollowsWrappedTextView: in a scroll view, a typescript
// view's text view posts its own damage, which reaches the scroll view
// from below its body. Typing that wraps and scrolls the transcript must
// still move the bar's thumb: after every key, the incremental flush
// equals a full redraw.
func TestScrollBarFollowsWrappedTextView(t *testing.T) {
	reg := class.NewRegistry()
	if err := text.Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := textview.Register(reg); err != nil {
		t.Fatal(err)
	}
	ws := memwin.New()
	w, err := ws.NewWindow("ts", 200, 40)
	if err != nil {
		t.Fatal(err)
	}
	win := w.(*memwin.Window)
	im := core.NewInteractionManager(ws, win)
	im.SetChild(widgets.NewScrollView(NewView(reg, NewSession())))
	im.FullRedraw()
	win.Inject(wsys.Click(50, 20))
	win.Inject(wsys.Release(50, 20))
	im.DrainEvents()
	im.FlushUpdates()
	for i, r := range "echo the quick brown fox jumps over the lazy dog again and again" {
		win.Inject(wsys.KeyPress(r))
		im.DrainEvents()
		im.FlushUpdates()
		inc := win.Snapshot()
		im.FullRedraw()
		if !inc.Equal(win.Snapshot()) {
			t.Fatalf("after key %d (%q): the incremental flush differs from a full redraw", i+1, r)
		}
	}
}
