package core

import (
	"fmt"
	"sort"
	"sync"

	"atk/internal/graphics"
	"atk/internal/wsys"
)

// damage is the pending repaint request for one view: either the whole
// bounds, or a coalesced region in the view's local coordinates.
type damage struct {
	full   bool
	region graphics.Region
}

// InteractionManager is the root of a view tree: a view wrapped around a
// window supplied by the underlying window system (paper §3). It
// translates window-system events into the view protocol, owns the input
// focus, arbitrates cursors and menus, and synchronizes drawing by
// coalescing posted update requests and sending update events back down
// the tree.
//
// By design it has exactly one child view, of arbitrary type.
type InteractionManager struct {
	BaseView
	ws  wsys.WindowSystem
	win wsys.InteractionWindow

	child View
	focus View

	// Mouse grab: between MouseDown and MouseUp, events go to the view
	// that accepted the down, with coordinates translated.
	grab View

	// pendMu guards pending: observers may post damage from other
	// goroutines while the event loop runs.
	pendMu   sync.Mutex
	pending  map[View]*damage
	message  string
	cursor   wsys.CursorShape
	menus    *MenuSet
	menuHook func(*MenuSet)
	popup    *popupState
	bindings map[Chord]func()
	ticks    int64
	closed   bool

	// idleHook runs after each TickEvent's update flush — the hook the
	// application hangs autosave on (ticks stand in for idle time in the
	// simulated window systems). It runs behind a panic barrier.
	idleHook func()

	// broken quarantines views whose Update or DrawOverlay panicked: their
	// damage is ignored and they are detached from their data objects, so
	// one blown component leaves the rest of the tree repainting.
	broken map[View]bool

	// EventsHandled counts dispatched events (benchmark instrumentation).
	EventsHandled int64
}

// NewInteractionManager roots a view tree in win.
func NewInteractionManager(ws wsys.WindowSystem, win wsys.InteractionWindow) *InteractionManager {
	im := &InteractionManager{
		ws:      ws,
		win:     win,
		pending: make(map[View]*damage),
		menus:   NewMenuSet(),
	}
	im.InitView(im, "im")
	w, h := win.Size()
	im.SetBounds(graphics.XYWH(0, 0, w, h))
	return im
}

// Window returns the underlying window.
func (im *InteractionManager) Window() wsys.InteractionWindow { return im.win }

// WindowSystem returns the window system the window came from.
func (im *InteractionManager) WindowSystem() wsys.WindowSystem { return im.ws }

// SetChild installs the single child view, gives it the full window area,
// and schedules a full redraw.
func (im *InteractionManager) SetChild(v View) {
	if im.child != nil {
		// Purge before detaching: once the parent link is gone the subtree
		// check cannot see these views, and stale entries would pin the
		// detached tree in memory until the next flush.
		im.purgePending(im.child)
		im.child.SetParent(nil)
	}
	im.child = v
	if v != nil {
		v.SetParent(im)
		w, h := im.win.Size()
		v.SetBounds(graphics.XYWH(0, 0, w, h))
		im.WantUpdate(v)
	}
}

// Child returns the installed child view.
func (im *InteractionManager) Child() View { return im.child }

// Focus returns the view currently holding the input focus.
func (im *InteractionManager) Focus() View { return im.focus }

// Drawable returns a fresh drawable covering the whole window.
func (im *InteractionManager) Drawable() *graphics.Drawable {
	return graphics.NewDrawable(im.win.Graphic())
}

// DrawableFor returns a drawable whose local origin and clip match v's
// allocated rectangle.
func (im *InteractionManager) DrawableFor(v View) *graphics.Drawable {
	d := im.Drawable()
	origin := AbsOrigin(v)
	r := graphics.Rect{Min: origin, Max: origin.Add(graphics.Pt(v.Bounds().Dx(), v.Bounds().Dy()))}
	return d.Sub(r.Translate(graphics.Pt(0, 0)))
}

// --- upward protocol termination ---

// WantUpdate implements View: requests are queued, not painted, until the
// update cycle runs (the delayed-update mechanism of paper §2).
func (im *InteractionManager) WantUpdate(v View) {
	if v == nil {
		return
	}
	im.pendMu.Lock()
	d := im.pending[v]
	if d == nil {
		d = &damage{}
		im.pending[v] = d
	}
	d.full, d.region = true, graphics.EmptyRegion()
	im.pendMu.Unlock()
}

// WantUpdateRegion implements View: queues damage for region r of v
// (local coordinates), coalescing with damage already pending for v.
func (im *InteractionManager) WantUpdateRegion(v View, r graphics.Region) {
	if v == nil || r.Empty() {
		return
	}
	im.pendMu.Lock()
	d := im.pending[v]
	if d == nil {
		d = &damage{}
		im.pending[v] = d
	}
	if !d.full {
		d.region = d.region.Union(r)
	}
	im.pendMu.Unlock()
}

// PendingViews returns the number of views with queued damage (test and
// instrumentation hook).
func (im *InteractionManager) PendingViews() int {
	im.pendMu.Lock()
	defer im.pendMu.Unlock()
	return len(im.pending)
}

// purgePending drops queued damage for every view in root's subtree.
func (im *InteractionManager) purgePending(root View) {
	im.pendMu.Lock()
	for v := range im.pending {
		if IsAncestor(root, v) {
			delete(im.pending, v)
		}
	}
	im.pendMu.Unlock()
}

// WantInputFocus implements View: transfers the focus immediately.
func (im *InteractionManager) WantInputFocus(v View) {
	if im.focus == v {
		return
	}
	if im.focus != nil {
		im.focus.LoseInputFocus()
	}
	im.focus = v
	if v != nil {
		v.ReceiveInputFocus()
		im.RebuildMenus()
	}
}

// PostMenus implements View: the chain terminates here.
func (im *InteractionManager) PostMenus(ms *MenuSet) {}

// PostCursor implements View: applies the shape to the window.
func (im *InteractionManager) PostCursor(shape wsys.CursorShape) {
	if shape == im.cursor {
		return
	}
	im.cursor = shape
	if c, err := im.ws.NewCursor(shape); err == nil {
		im.win.SetCursor(c)
	}
}

// Cursor returns the most recently posted cursor shape.
func (im *InteractionManager) Cursor() wsys.CursorShape { return im.cursor }

// PostMessage implements View: the message is retained for display (a
// frame in the tree usually intercepts it first).
func (im *InteractionManager) PostMessage(msg string) { im.message = msg }

// Message returns the last message that reached the root.
func (im *InteractionManager) Message() string { return im.message }

// --- menus ---

// RebuildMenus renegotiates the menu set starting from the focus view:
// the focus contributes first, then each ancestor in turn may add or veto
// (PostMenus climbs the tree by default).
func (im *InteractionManager) RebuildMenus() {
	ms := NewMenuSet()
	if im.focus != nil {
		im.focus.PostMenus(ms)
	} else if im.child != nil {
		im.child.PostMenus(ms)
	}
	if im.menuHook != nil {
		im.menuHook(ms)
	}
	im.menus = ms
}

// SetMenuHook installs an application-level contributor that runs after
// every menu negotiation — how applications add their File/Quit cards on
// top of whatever the focused component offers. It may also veto
// component items (it sees the finished set).
func (im *InteractionManager) SetMenuHook(hook func(*MenuSet)) {
	im.menuHook = hook
	im.RebuildMenus()
}

// Menus returns the current negotiated menu set.
func (im *InteractionManager) Menus() *MenuSet { return im.menus }

// --- event dispatch ---

// SetIdleHook installs f to run after every TickEvent (the simulated
// systems' idle signal), behind a panic barrier. Applications use it to
// flush the edit journal and autosave dirty documents; see cmd/ez.
func (im *InteractionManager) SetIdleHook(f func()) { im.idleHook = f }

// safely runs f behind a recover barrier, reporting a panic through
// PanicHandler and returning whether f completed. what names f's work
// for the report and is called only after a panic, so a barrier whose
// label names an event costs that event no allocation.
func (im *InteractionManager) safely(what func() string, f func()) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			PanicHandler("interaction manager: "+what(), p)
		}
	}()
	f()
	return true
}

// quarantine takes v out of the update cycle after it panicked: future
// damage from it is dropped and it stops observing its data object, so
// notification and repaint both keep flowing to the surviving views.
func (im *InteractionManager) quarantine(v View, what string, p any) {
	if im.broken == nil {
		im.broken = make(map[View]bool)
	}
	im.broken[v] = true
	if d := v.DataObject(); d != nil {
		d.RemoveObserver(v)
	}
	PanicHandler(fmt.Sprintf("view %s detached after panic in %s", v.ViewName(), what), p)
}

// BrokenViews reports how many views have been quarantined after a panic
// (test and diagnostics hook).
func (im *InteractionManager) BrokenViews() int { return len(im.broken) }

// HandleEvent dispatches one window-system event through the view tree
// and then runs the update cycle, so each event's visual consequences are
// flushed before the next event, as the original interaction manager
// sequenced drawing. Dispatch runs behind a panic barrier: a handler that
// blows up loses its event, not the session — the update cycle and the
// idle hook (autosave) still run.
func (im *InteractionManager) HandleEvent(ev wsys.Event) {
	im.EventsHandled++
	im.safely(func() string { return fmt.Sprintf("dispatching %v event", ev.Kind) }, func() { im.dispatch(ev) })
	im.FlushUpdates()
	if ev.Kind == wsys.TickEvent && im.idleHook != nil {
		im.safely(func() string { return "idle hook" }, im.idleHook)
	}
}

// dispatch routes one event to the view tree.
func (im *InteractionManager) dispatch(ev wsys.Event) {
	switch ev.Kind {
	case wsys.MouseEvent:
		im.dispatchMouse(ev)
	case wsys.KeyEvent:
		im.dispatchKey(ev)
	case wsys.UpdateEvent:
		im.WantUpdate(im.child)
	case wsys.ResizeEvent:
		im.SetBounds(graphics.XYWH(0, 0, ev.Width, ev.Height))
		if im.child != nil {
			im.child.SetBounds(graphics.XYWH(0, 0, ev.Width, ev.Height))
			im.WantUpdate(im.child)
		}
	case wsys.MenuEvent:
		im.menus.Select(ev.MenuPath)
	case wsys.FocusEvent:
		// Window-level focus: nothing to do in the simulated systems.
	case wsys.TickEvent:
		im.ticks = ev.Tick
		if tickers, ok := im.child.(interface{ Tick(int64) }); ok && im.child != nil {
			tickers.Tick(ev.Tick)
		}
	case wsys.CloseEvent:
		im.closed = true
	}
}

// dispatchMouse routes a mouse event. Outside a grab, the event is passed
// down from the child, each parent deciding its disposition; during a
// grab (button held), events go straight to the grabbing view with
// coordinates translated into its space.
func (im *InteractionManager) dispatchMouse(ev wsys.Event) {
	if im.handlePopupMouse(ev) {
		return
	}
	if ev.Button == wsys.RightButton && ev.Action == wsys.MouseDown {
		im.PostPopup(ev.Pos)
		return
	}
	if im.grab != nil && (ev.Action == wsys.MouseMove || ev.Action == wsys.MouseUp) {
		origin := AbsOrigin(im.grab)
		im.grab.Hit(ev.Action, ev.Pos.Sub(origin), ev.Clicks)
		if ev.Action == wsys.MouseUp {
			im.grab = nil
		}
		return
	}
	if im.child == nil {
		return
	}
	target := im.child.Hit(ev.Action, ev.Pos.Sub(im.child.Bounds().Min), ev.Clicks)
	if ev.Action == wsys.MouseDown && target != nil {
		im.grab = target
	}
}

// Closed reports whether a CloseEvent has been handled.
func (im *InteractionManager) Closed() bool { return im.closed }

// Ticks returns the last tick count seen.
func (im *InteractionManager) Ticks() int64 { return im.ticks }

// --- the update cycle ---

// A Preparer is a view whose drawing depends on the state of views below
// it: a scroll view's bar shows its body's scroll position. Before a
// flush collects the pending damage, it calls PrepareUpdate on every
// Preparer above a view with damage pending, so that the Preparer can
// request damage of its own and have it repainted in the same flush.
type Preparer interface {
	PrepareUpdate()
}

// FlushUpdates performs the delayed update: Preparers above the damaged
// views add their damage, pending views are repainted parents-first (the
// update event travelling back down the tree), each restricted to its
// damage region minus whatever shallower views already repaint, then
// ancestors of updated views draw their overlays so material a parent
// keeps on top of its children ends up in the right order. Finally only
// the union of everything repainted is flushed to the backend.
func (im *InteractionManager) FlushUpdates() {
	im.prepare()
	im.pendMu.Lock()
	if len(im.pending) == 0 {
		im.pendMu.Unlock()
		return
	}
	pend := im.pending
	im.pending = make(map[View]*damage)
	im.pendMu.Unlock()

	views := make([]View, 0, len(pend))
	for v := range pend {
		views = append(views, v)
	}
	sort.Slice(views, func(i, j int) bool { return Depth(views[i]) < Depth(views[j]) })

	// Accumulate device-space damage parents-first. Because the view tree
	// is strict containment (siblings disjoint, children inside parents),
	// subtracting the running covered region drops exactly the pixels some
	// shallower view already repaints — the region-algebra replacement for
	// the old quadratic ancestor scan.
	winR := graphics.XYWH(0, 0, im.Bounds().Dx(), im.Bounds().Dy())
	covered := graphics.EmptyRegion()
	type job struct {
		v   View
		reg graphics.Region // device space: what this view repaints
	}
	var jobs []job
	for _, v := range views {
		if Root(v) != View(im) && Root(v) != im.Self() {
			continue // detached view; request is stale
		}
		if im.broken[v] {
			continue // quarantined after a panic; never repainted again
		}
		origin := AbsOrigin(v)
		devR := graphics.Rect{Min: origin, Max: origin.Add(graphics.Pt(v.Bounds().Dx(), v.Bounds().Dy()))}.Intersect(winR)
		var dev graphics.Region
		if d := pend[v]; d.full {
			dev = graphics.RectRegion(devR)
		} else {
			dev = d.region.Translate(origin).IntersectRect(devR)
		}
		eff := dev.Subtract(covered)
		if eff.Empty() {
			continue
		}
		jobs = append(jobs, job{v, eff})
		covered = covered.Union(eff)
	}
	for _, j := range jobs {
		d := im.DrawableFor(j.v)
		d.SetRegion(j.reg)
		im.updateOne(j.v, d)
	}
	// Overlay pass: every ancestor of an updated view, deepest last, each
	// confined to the freshly repainted region so overlays never touch
	// undamaged pixels.
	overlays := map[View]bool{}
	for _, j := range jobs {
		for a := j.v.Parent(); a != nil; a = a.Parent() {
			overlays[a] = true
		}
	}
	ancestors := make([]View, 0, len(overlays))
	for a := range overlays {
		ancestors = append(ancestors, a)
	}
	sort.Slice(ancestors, func(i, j int) bool { return Depth(ancestors[i]) < Depth(ancestors[j]) })
	for _, a := range ancestors {
		if a == View(im) || a == im.Self() || im.broken[a] {
			continue
		}
		d := im.DrawableFor(a)
		d.SetRegion(covered)
		im.overlayOne(a, d)
	}
	// A posted popup stays on top of whatever just repainted beneath it.
	im.drawPopup()
	if im.popup != nil {
		covered = covered.UnionRect(im.popup.rect)
	}
	_ = im.win.Graphic().FlushRegion(covered)
}

// prepare calls PrepareUpdate on the Preparers above each view with
// damage pending; what they request joins the pending damage.
func (im *InteractionManager) prepare() {
	var buf [8]View
	im.pendMu.Lock()
	views := buf[:0]
	for v := range im.pending {
		views = append(views, v)
	}
	im.pendMu.Unlock()
	for _, v := range views {
		for a := v.Parent(); a != nil; a = a.Parent() {
			if p, ok := a.(Preparer); ok {
				p.PrepareUpdate()
			}
		}
	}
}

// updateOne repaints one view behind a panic barrier; a panicking view is
// quarantined so the rest of the flush proceeds.
func (im *InteractionManager) updateOne(v View, d *graphics.Drawable) {
	defer func() {
		if p := recover(); p != nil {
			im.quarantine(v, "Update", p)
		}
	}()
	v.Update(d)
}

// overlayOne is updateOne for the overlay pass.
func (im *InteractionManager) overlayOne(v View, d *graphics.Drawable) {
	defer func() {
		if p := recover(); p != nil {
			im.quarantine(v, "DrawOverlay", p)
		}
	}()
	v.DrawOverlay(d)
}

// FullRedraw repaints the whole tree unconditionally and clears any
// pending update requests (they are subsumed).
func (im *InteractionManager) FullRedraw() {
	im.pendMu.Lock()
	im.pending = make(map[View]*damage)
	im.pendMu.Unlock()
	if im.child == nil {
		return
	}
	d := im.DrawableFor(im.child)
	d.ClearRect(graphics.XYWH(0, 0, im.child.Bounds().Dx(), im.child.Bounds().Dy()))
	im.child.FullUpdate(d)
	im.child.DrawOverlay(d)
	_ = im.win.Graphic().Flush()
}

// Run processes events from the window until the channel closes, a
// CloseEvent arrives, or limit events have been handled (limit <= 0 means
// no limit). It returns the number of events processed. Simulated window
// systems drive this loop by injecting events from another goroutine.
func (im *InteractionManager) Run(limit int) int {
	n := 0
	for ev := range im.win.Events() {
		im.HandleEvent(ev)
		n++
		if im.closed || (limit > 0 && n >= limit) {
			break
		}
	}
	return n
}

// DrainEvents handles every event currently queued without blocking.
func (im *InteractionManager) DrainEvents() int {
	n := 0
	for {
		select {
		case ev, ok := <-im.win.Events():
			if !ok {
				return n
			}
			im.HandleEvent(ev)
			n++
		default:
			return n
		}
	}
}

// String identifies the IM in dumps.
func (im *InteractionManager) String() string {
	return fmt.Sprintf("InteractionManager(%s)", im.win.Title())
}
