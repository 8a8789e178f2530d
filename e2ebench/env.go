package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"atk/internal/appkit"
	"atk/internal/class"
	"atk/internal/components"
	"atk/internal/core"
	"atk/internal/docserve"
	"atk/internal/graphics"
	"atk/internal/persist"
	"atk/internal/text"
	"atk/internal/textview"
	"atk/internal/widgets"
	"atk/internal/wsys"
	"atk/internal/wsys/memwin"
)

// window is one ez session's screen, built the way cmd/ez builds it: a
// memwin window whose interaction manager holds frame → scroll view →
// text view.
type window struct {
	app *appkit.App
	win *memwin.Window
	im  *core.InteractionManager
	tv  *textview.View
	l   *lane

	rowPitch int // pixel height of one text line, measured by calibrate
}

func newWindow(title string, l *lane) (*window, error) {
	app, err := appkit.New(title, 640, 400, "memwin")
	if err != nil {
		return nil, err
	}
	w, ok := app.Win.(*memwin.Window)
	if !ok {
		app.Close()
		return nil, fmt.Errorf("e2ebench: memwin backend gave a %T", app.Win)
	}
	return &window{app: app, win: w, im: app.IM, l: l}, nil
}

func (w *window) close() { w.app.Close() }

// show puts doc on screen in a fresh view tree and paints it once. With
// tracing on, observer probes are registered on doc just before and just
// after the text view.
func (w *window) show(doc *text.Data) {
	if w.l != nil && w.l.tr != nil {
		doc.AddObserver(&probe{l: w.l})
	}
	w.tv = textview.New(w.app.Reg)
	w.tv.SetDataObject(doc)
	if w.l != nil && w.l.tr != nil {
		doc.AddObserver(&probe{l: w.l, after: true})
	}
	w.im.SetChild(widgets.NewFrame(widgets.NewScrollView(w.tv)))
	w.l.call("core.FullRedraw", w.im.FullRedraw)
}

// tvRect is the text view's rectangle in window coordinates.
func (w *window) tvRect() graphics.Rect {
	o := core.AbsOrigin(w.tv)
	b := w.tv.Bounds()
	return graphics.XYWH(o.X, o.Y, b.Dx(), b.Dy())
}

// calibrate measures the line pitch by clicking down the text view's left
// edge until the caret reaches the second line. It needs a document whose
// first line is unwrapped and whose second line exists.
func (w *window) calibrate(secondLine int) error {
	r := w.tvRect()
	for y := 2; y < 80; y++ {
		w.click(r.Min.X+1, r.Min.Y+y)
		if w.tv.Dot() == secondLine {
			w.rowPitch = y - 2
			return nil
		}
	}
	return errors.New("e2ebench: could not find the text line pitch")
}

// placeCaret puts the caret at the end of the line on visible text row
// row, as a user does with a click and the End key.
func (w *window) placeCaret(row int) {
	w.clickRow(row)
	w.im.HandleEvent(wsys.KeyDownEvent(wsys.KeyEnd))
}

// clickRow clicks at the start of visible text row row.
func (w *window) clickRow(row int) {
	r := w.tvRect()
	w.click(r.Min.X+1, r.Min.Y+2+row*w.rowPitch+w.rowPitch/2)
}

func (w *window) click(x, y int) {
	w.im.HandleEvent(wsys.Click(x, y))
	w.im.HandleEvent(wsys.Release(x, y))
}

// incrementalMatchesFull reports whether the window's incrementally
// repainted bitmap equals a full redraw of it.
func (w *window) incrementalMatchesFull() bool {
	w.im.FlushUpdates()
	inc := w.win.Snapshot()
	w.im.FullRedraw()
	return inc.Equal(w.win.Snapshot())
}

// --- hosts ---

// syncEvery is how often a served document's journal is forced to disk,
// as ezserve's -sync default does.
const syncEvery = 2 * time.Second

// served is one document served the way cmd/ezserve serves it:
// OpenHostFile on persist.OS, Server.Serve on a loopback TCP listener,
// default HostOptions, and a periodic SyncNow.
type served struct {
	srv  *docserve.Server
	host *docserve.Host
	addr string
	tr   *tracer

	stop     chan struct{}
	wg       sync.WaitGroup
	serveErr chan error

	mu       sync.Mutex
	queueMax int
	syncErr  error
}

func serve(fsys persist.FS, path string, tr *tracer) (*served, error) {
	reg, err := components.NewRegistry()
	if err != nil {
		return nil, err
	}
	h, err := docserve.OpenHostFile(fsys, path, reg, docserve.HostOptions{})
	if err != nil {
		return nil, err
	}
	srv := docserve.NewServer(docserve.HostOptions{})
	srv.AddHost(h)
	var ln net.Listener
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	if tr != nil {
		ln = &traceListener{Listener: ln, tr: tr}
	}
	s := &served{srv: srv, host: h, addr: ln.Addr().String(), tr: tr,
		stop: make(chan struct{}), serveErr: make(chan error, 1)}
	go func() { s.serveErr <- srv.Serve(ln) }()
	s.wg.Add(1)
	go s.syncLoop()
	return s, nil
}

// syncLoop is ezserve's periodic SyncNow. Traced, it also samples the
// deepest outbound queue every few milliseconds.
func (s *served) syncLoop() {
	defer s.wg.Done()
	syncT := time.NewTicker(syncEvery)
	defer syncT.Stop()
	var sampleC <-chan time.Time
	if s.tr != nil {
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		sampleC = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-syncT.C:
			if err := s.host.SyncNow(); err != nil {
				s.mu.Lock()
				s.syncErr = err
				s.mu.Unlock()
			}
		case <-sampleC:
			d := s.host.Stats().QueueDepthMax
			s.mu.Lock()
			s.queueMax = max(s.queueMax, d)
			s.mu.Unlock()
		}
	}
}

func (s *served) takeQueueMax() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queueMax
	s.queueMax = 0
	return q
}

// close stops the periodic sync, then closes the server (which saves the
// document) and waits for Serve to return.
func (s *served) close() error {
	close(s.stop)
	s.wg.Wait()
	err := s.srv.Close()
	<-s.serveErr
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		err = s.syncErr
	}
	return err
}

// dial connects a replica to the served document, as ez -connect does but
// without self-healing: a lost connection is a failure here, not something
// to ride out.
func (s *served) dial(docName, clientID string, l *lane, role string, capture *capturedFrames) (*docserve.Client, error) {
	reg, err := components.StandardRegistry()
	if err != nil {
		return nil, err
	}
	return s.dialWith(reg, docName, clientID, l, role, capture)
}

func (s *served) dialWith(reg *class.Registry, docName, clientID string, l *lane, role string, capture *capturedFrames) (*docserve.Client, error) {
	id := l.begin("docserve.Connect")
	defer l.end(id)
	start := time.Now()
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, err
	}
	if s.tr != nil {
		conn = &traceConn{Conn: conn, tr: s.tr, l: l, role: role, capture: capture != nil, cap: capture}
	}
	cl, err := docserve.Connect(conn, docName, docserve.ClientOptions{
		ClientID:       clientID,
		Registry:       reg,
		IdleTimeout:    60 * time.Second,
		HeartbeatEvery: 10 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	s.tr.sampleDur("client.connect_us", time.Since(start))
	return cl, nil
}
