package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"atk/internal/datastream"
	"atk/internal/docserve"
	"atk/internal/persist"
	"atk/internal/text"
)

// pair_type: two ez windows share one plain served document; one types,
// the other watches every keystroke arrive and repaint.
const (
	pairLines     = 2500 // about 100 KB
	pairCaretRow  = 3
	pairBurstKeys = 100
)

// waitSeq pumps cl until it has applied seq. Traced, it polls Pump so the
// time spent applying ops is timed apart from the time spent waiting.
func (b *bench) waitSeq(cl *docserve.Client, seq uint64, l *lane) error {
	if b.tr == nil {
		return cl.WaitSeq(seq, opDeadline)
	}
	id := l.begin("docserve.WaitSeq")
	defer l.end(id)
	deadline := time.Now().Add(opDeadline)
	for cl.Confirmed() < seq {
		before := cl.Confirmed()
		start := b.tr.now()
		t0 := time.Now()
		err := cl.Pump()
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if n := cl.Confirmed() - before; n > 0 {
			// Only the polls that applied something are spans.
			b.tr.leaf("docserve.Pump", start, start+int64(d), l)
			b.tr.sampleDur("client.pump_us", d/time.Duration(n))
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out at seq %d waiting for %d", cl.Confirmed(), seq)
		}
		runtime.Gosched()
	}
	return nil
}

// syncAck waits for cl's own edits to be acknowledged.
func (b *bench) syncAck(cl *docserve.Client, l *lane) error {
	id := l.begin("docserve.Sync")
	t0 := time.Now()
	err := cl.Sync(opDeadline)
	b.tr.sampleDur("client.sync_wait_us", time.Since(t0))
	l.end(id)
	return err
}

// joinWindow connects a windowed replica and paints it: the join a user
// of ez -connect waits for. It returns the client and the join's bytes.
func (b *bench) joinWindow(s *served, w *window, docName, clientID, role string) (*docserve.Client, int64, error) {
	r0 := b.tr.count("net." + role + ".read_bytes")
	start := time.Now()
	cl, err := s.dialWith(w.app.Reg, docName, clientID, w.l, role, nil)
	if err != nil {
		return nil, 0, err
	}
	if d := time.Since(start); d > joinDeadline {
		_ = cl.Close()
		return nil, 0, fmt.Errorf("not live within %v (took %v)", joinDeadline, d)
	}
	joined := b.tr.count("net."+role+".read_bytes") - r0
	t0 := time.Now()
	w.show(cl.Doc())
	b.tr.sampleDur("core.first_paint_us", time.Since(t0))
	return cl, joined, nil
}

// pairSession is one set-up of pair_type: a host and two ez windows.
type pairSession struct {
	s                 *served
	typist, watcher   *window
	clTypist, clWatch *docserve.Client
}

func (p *pairSession) close() error {
	var errs []error
	for _, cl := range []*docserve.Client{p.clTypist, p.clWatch} {
		if cl != nil {
			errs = append(errs, cl.Close())
		}
	}
	for _, w := range []*window{p.typist, p.watcher} {
		if w != nil {
			w.close()
		}
	}
	if p.s != nil {
		errs = append(errs, p.s.close())
	}
	return errors.Join(errs...)
}

func runPair(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	path := filepath.Join(b.dir, "pair.d")
	content := genText(rng, pairLines)
	if err := persist.SaveDocument(persist.OS, path, text.NewString(content)); err != nil {
		return fmt.Errorf("writing the input document: %w", err)
	}
	model := newGapBuf(content)
	lt, lw := newLane(b.tr), newLane(b.tr)
	capture := &capturedFrames{}
	b.quiesce()

	var p *pairSession
	for i := 0; i < setupBefore; i++ {
		if p != nil {
			if err := p.close(); err != nil {
				return err
			}
		}
		var err error
		if p, err = b.pairSetup(path, lt, lw, capture); err != nil {
			return err
		}
	}
	defer func() {
		if p != nil {
			if err := p.close(); err != nil {
				b.res.problem("pair_type: closing: %v", err)
			}
		}
	}()
	if err := p.typist.calibrate(model.lineStartOf(1)); err != nil {
		return err
	}

	obs := &keyObs{}
	var joinBytes []float64
	var joinTotal int64
	joins := 0
	b.beginPhase()
	p.s.host.LagWindow()
	p.s.takeQueueMax()
	snap0 := b.tr.count("net.host.snap_frames")
	before := b.countsNow(p.s.host, "typist", "watcher")
	keyIndex := 0
	for round := 0; b.more(len(b.res.key) < minTail || len(b.res.seen) < minTail); round++ {
		// The watcher reopens the served document: dial to first paint.
		if err := p.clWatch.Close(); err != nil {
			return fmt.Errorf("closing the watcher: %w", err)
		}
		p.clWatch = nil
		t0 := time.Now()
		cl, jb, err := b.joinWindow(p.s, p.watcher, path, "watcher", "watcher")
		if !b.res.op(err, "watcher join") {
			return nil
		}
		b.res.open = append(b.res.open, ms(time.Since(t0)))
		p.clWatch = cl
		joins++
		joinTotal += jb
		joinBytes = append(joinBytes, float64(jb))

		_, top, _ := p.typist.tv.ScrollInfo()
		p.typist.placeCaret(pairCaretRow)
		want := model.lineEndOf(top + pairCaretRow)
		if !b.res.check(p.typist.tv.Dot() == want, "pair_type: click and End on row %d put the caret at %d, the model's line end is %d", pairCaretRow, p.typist.tv.Dot(), want) {
			return nil
		}
		model.moveTo(want)
		keys := typeBurst(rng, model, pairBurstKeys)
		if b.skew && keyIndex == 0 {
			// The model alone gets one keystroke more.
			model.apply(key{kind: keyChar, r: 'q'})
		}
		m0 := b.memNow()
		start := time.Now()
		for _, k := range keys {
			t0 := time.Now()
			d := p.typist.typeKey(k.event(), keyIndex, obs)
			b.res.key = append(b.res.key, ms(d))
			lt.setKey(keyIndex)
			err := b.syncAck(p.clTypist, lt)
			lt.setKey(-1)
			if err == nil {
				b.res.ack = append(b.res.ack, ms(time.Since(t0)))
				lw.setKey(keyIndex)
				err = b.waitSeq(p.clWatch, p.clTypist.Confirmed(), lw)
				if err == nil {
					ops0 := p.watcher.win.Raster().Ops()
					id := lw.begin("core.FlushUpdates")
					tf := time.Now()
					p.watcher.im.FlushUpdates()
					b.tr.sampleDur("core.remote_flush_us", time.Since(tf))
					lw.end(id)
					b.res.seen = append(b.res.seen, ms(time.Since(t0)))
					if p.watcher.win.Raster().Ops() == ops0 {
						_, tt, tv := p.typist.tv.ScrollInfo()
						_, wt, wv := p.watcher.tv.ScrollInfo()
						b.res.problem("pair_type: the watcher did not repaint remote keystroke %d (typist top %d vis %d dot %d line %d; watcher top %d vis %d; key %q)", keyIndex, tt, tv, p.typist.tv.Dot(), p.clTypist.Doc().LineOf(p.typist.tv.Dot()), wt, wv, k.kind)
					}
				}
				lw.setKey(-1)
			}
			if !b.res.op(err, fmt.Sprintf("pair_type: keystroke %d", keyIndex)) {
				return nil
			}
			b.res.edits++
			keyIndex++
		}
		b.res.editTime += time.Since(start)
		b.memAdd(m0)
		b.res.check(p.typist.incrementalMatchesFull(), "pair_type: typist's incremental repaint differs from a full redraw in round %d", round)
		b.res.check(p.watcher.incrementalMatchesFull(), "pair_type: watcher's incremental repaint differs from a full redraw in round %d", round)
		b.res.check(p.clTypist.Doc().String() == model.String(), "pair_type: typist's replica differs from the model after round %d", round)
		b.res.check(p.clWatch.Doc().String() == model.String(), "pair_type: watcher's replica differs from the model after round %d", round)
		b.res.check(p.s.host.DocString() == model.String(), "pair_type: host's document differs from the model after round %d", round)
		if round == 0 && b.tr != nil {
			if err := p.s.host.SyncNow(); err != nil {
				return err
			}
			cdoc, cj, err := crashCopy(path, filepath.Join(b.dir, "crash"))
			if err != nil {
				return err
			}
			if err := b.analyzeCrashCopy(cdoc, cj, p.typist.app.Reg); err != nil {
				return err
			}
		}
		b.measureSave(p.s.host.Checkpoint, "host save")
	}
	b.res.noteHeap()
	after := b.countsNow(p.s.host, "typist", "watcher")
	after.downBytes -= joinTotal
	b.reportPhase(before, after, b.res.edits)
	obs.report(b.res.layer)
	b.reportTimings()
	b.hostLag(p.s.host)
	if b.tr != nil {
		b.res.layer["docserve.host.queue_depth_max"] = float64(p.s.takeQueueMax())
		b.res.layer["docserve.host.snapshot_frames_per_join"] = ratio(float64(b.tr.count("net.host.snap_frames")-snap0), float64(joins))
		b.res.layer["net.join_bytes"] = median(joinBytes)
		b.analyzeFrames(capture)
	}

	// The host's saved file, re-read strictly and eagerly, is the model.
	saved, err := persist.Load(persist.OS, path, p.typist.app.Reg, datastream.Strict)
	if !b.res.op(err, "strict re-read of the host's saved file") {
		return nil
	}
	b.res.check(saved.Doc.String() == model.String(), "pair_type: host's saved file differs from the model")

	// More set-up samples, on a copy of the served file.
	spare := filepath.Join(b.dir, "setup.d")
	if err := copyFile(path, spare); err != nil {
		return err
	}
	for i := 0; i < setupAfter; i++ {
		q, err := b.pairSetup(spare, newLane(nil), newLane(nil), nil)
		if err != nil {
			return err
		}
		if err := q.close(); err != nil {
			return err
		}
	}
	return nil
}

// pairSetup measures pair_type's set-up once: host file, listener, two
// windows, two attaches and first paints.
func (b *bench) pairSetup(path string, lt, lw *lane, capture *capturedFrames) (*pairSession, error) {
	t0 := time.Now()
	p := &pairSession{}
	fail := func(err error) (*pairSession, error) {
		return nil, errors.Join(err, p.close())
	}
	var err error
	if p.s, err = serve(b.fsys, path, b.tr); err != nil {
		return fail(err)
	}
	if p.typist, err = newWindow("ez", lt); err != nil {
		return fail(err)
	}
	if p.watcher, err = newWindow("ez", lw); err != nil {
		return fail(err)
	}
	if p.clTypist, err = p.s.dialWith(p.typist.app.Reg, path, "typist", lt, "typist", capture); err != nil {
		return fail(err)
	}
	p.typist.show(p.clTypist.Doc())
	if p.clWatch, _, err = b.joinWindow(p.s, p.watcher, path, "watcher", "watcher"); err != nil {
		return fail(err)
	}
	b.res.setup = append(b.res.setup, time.Since(t0).Seconds())
	return p, nil
}
