package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"atk/internal/docserve"
	"atk/internal/persist"
	"atk/internal/text"
)

// join_busy: a paced writer types into a large served document while a
// second connection keeps joining it: reads run beside writes.
const (
	joinLines     = 100000 // about 4 MB
	joinRate      = 200    // writer keystrokes per second
	joinCaretRow  = 3      // the writer types from the start of this line
	joinLiveOps   = 100    // keystrokes each joined replica sees live
	joinSaves     = 7      // host saves after the measured phase
	joinSetupReps = 3      // set-up samples before and again after the measured phase
)

// joinModel is the writer's document as the model sees it: the runes up
// to the caret, followed by the untouched rest of the input. The writer
// only types and deletes behind its caret, so the rest never changes.
type joinModel struct {
	head    *gapBuf
	rest    string
	restLen int // runes in rest
}

func (m *joinModel) String() string { return m.head.String() + m.rest }

// matches reports whether doc holds exactly the model's text.
func (m *joinModel) matches(doc *text.Data) bool {
	n := m.head.len()
	return doc.Len() == n+m.restLen &&
		doc.Slice(0, n) == m.head.String() && doc.Slice(n, doc.Len()) == m.rest
}

func newJoinModel(content string) *joinModel {
	g := newGapBuf(content)
	split := g.lineStartOf(joinCaretRow)
	rs := []rune(content)
	return &joinModel{head: newGapBufAtEnd(string(rs[:split])), rest: string(rs[split:]), restLen: len(rs) - split}
}

// newGapBufAtEnd returns a model of s with the caret at its end.
func newGapBufAtEnd(s string) *gapBuf {
	return &gapBuf{before: []rune(s)}
}

// joinWriter is the paced writer: windowless, one keystroke every
// 1/joinRate seconds, each timed from when it was due.
type joinWriter struct {
	cl    *docserve.Client
	l     *lane
	keys  []key
	caret int // the replica-side caret (rune offset)
	start time.Time
	base  uint64 // host seq before the first keystroke
	// unpaced types each keystroke as soon as the last one returns (a
	// reference setting, not a workload: its latencies are not timed
	// from a schedule).
	unpaced bool

	// Filled in by run, read after it returns.
	typed    int
	key, ack []float64
	late     []float64
	err      error
	acked    atomic.Int64 // read by the joiner while run goes on
}

func (w *joinWriter) due(i int) time.Time {
	return w.start.Add(time.Duration(i) * time.Second / joinRate)
}

// run types until stop closes, pumping acks between keystrokes.
func (w *joinWriter) run(stop <-chan struct{}) {
	doc := w.cl.Doc()
	acked := 0
	noteAcks := func() {
		for acked < w.typed && w.cl.Confirmed() >= w.base+uint64(acked+1) {
			w.ack = append(w.ack, ms(time.Since(w.due(acked))))
			acked++
			w.acked.Store(int64(acked))
		}
	}
	for i := 0; i < len(w.keys); i++ {
		due := w.due(i)
		if w.unpaced {
			due = time.Now()
		}
		for {
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			if err := w.cl.PumpWait(wait); err != nil {
				w.err = err
				return
			}
			noteAcks()
		}
		select {
		case <-stop:
			return
		default:
		}
		w.late = append(w.late, ms(time.Since(due)))
		w.l.setKey(i)
		id := w.l.begin("edit")
		var err error
		switch k := w.keys[i]; k.kind {
		case keyBackspace:
			err = doc.Delete(w.caret-1, 1)
			w.caret--
		case keyReturn:
			err = doc.Insert(w.caret, "\n")
			w.caret++
		default:
			err = doc.Insert(w.caret, string(k.r))
			w.caret++
		}
		w.l.end(id)
		w.l.setKey(-1)
		w.key = append(w.key, ms(time.Since(due)))
		if err != nil {
			w.err = err
			return
		}
		w.typed++
		if err := w.cl.Pump(); err != nil {
			w.err = err
			return
		}
		noteAcks()
	}
	w.err = errors.New("ran out of pre-generated keystrokes")
}

func runJoin(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	path := filepath.Join(b.dir, "join.d")
	content := genText(rng, joinLines)
	if err := persist.SaveDocument(persist.OS, path, text.NewString(content)); err != nil {
		return fmt.Errorf("writing the input document: %w", err)
	}
	// Keystrokes for the longest the measured phase can run.
	model := newJoinModel(content)
	split := model.head.len()
	n := joinRate * int(3*b.seconds/time.Second+30)
	if b.unpaced {
		n *= 50 // an unpaced writer types far faster than joinRate
	}
	keys := typeBurst(rng, model.head, n)
	check := newJoinModel(content)
	content = ""
	if b.skew {
		check.head.apply(key{kind: keyChar, r: 'q'})
	}
	lw, lj := newLane(b.tr), newLane(b.tr)
	b.quiesce()
	capture := &capturedFrames{}

	var sess *joinSession
	defer func() {
		if err := sess.close(); err != nil {
			b.res.problem("join_busy: closing: %v", err)
		}
	}()
	for i := 0; i < joinSetupReps; i++ {
		if err := sess.close(); err != nil {
			return err
		}
		var err error
		if sess, err = b.joinSetup(path, lw, lj, capture); err != nil {
			return err
		}
	}
	s, wcl, jw := sess.s, sess.wcl, sess.jw

	w := &joinWriter{cl: wcl, l: lw, keys: keys, caret: split, base: wcl.Confirmed(), unpaced: b.unpaced}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	b.beginPhase()
	s.host.LagWindow()
	s.takeQueueMax()
	snap0 := b.tr.count("net.host.snap_frames")
	before := b.countsNow(s.host, "writer", "joiner")
	m0 := b.memNow()
	w.start = time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.run(stop)
	}()

	checked := 0 // keystrokes fed to the check model
	var joinBytes []float64
	var joinTotal int64
	joins := 0
	for b.more(len(b.res.seen) < minTail || w.acked.Load() < minTail) {
		t0 := time.Now()
		cl, jb, err := b.joinWindow(s, jw, path, "joiner", "joiner")
		if !b.res.op(err, "join") {
			continue
		}
		b.res.open = append(b.res.open, ms(time.Since(t0)))
		joins++
		joinTotal += jb
		joinBytes = append(joinBytes, float64(jb))

		// The replica at its live seq is the model after that many
		// keystrokes.
		live := int(cl.Confirmed() - w.base)
		for ; checked < live; checked++ {
			check.head.apply(keys[checked])
		}
		b.res.check(check.matches(cl.Doc()), "join_busy: joined replica at seq %d differs from the model", cl.Confirmed())

		// Live ops: seen is timed for the keystrokes due after the
		// replica went live (the ones queued during the join are its
		// catch-up, which open_ms already counts).
		liveAt := time.Now()
		for n := 0; n < joinLiveOps; {
			seq := cl.Confirmed() + 1
			lj.setKey(int(seq - w.base - 1))
			err := b.waitSeq(cl, seq, lj)
			if err == nil {
				id := lj.begin("core.FlushUpdates")
				tf := time.Now()
				jw.im.FlushUpdates()
				b.tr.sampleDur("core.remote_flush_us", time.Since(tf))
				lj.end(id)
				for q := seq; q <= cl.Confirmed(); q++ {
					if due := w.due(int(q - w.base - 1)); due.After(liveAt) {
						b.res.seen = append(b.res.seen, ms(time.Since(due)))
						n++
					}
				}
			}
			lj.setKey(-1)
			if !b.res.op(err, "join_busy: live op") {
				break
			}
		}
		b.res.check(jw.incrementalMatchesFull(), "join_busy: joined replica's incremental repaint differs from a full redraw")
		// A replica the host evicted is already closed; that is counted
		// above as a failed live op.
		_ = cl.Close()
	}
	close(stop)
	wg.Wait()
	phase := time.Since(w.start)
	b.memAdd(m0)
	if !b.res.op(w.err, "join_busy: writer") {
		return nil
	}
	for i := 0; i < w.typed; i++ {
		b.res.op(nil, "keystroke")
	}
	if err := b.syncAck(wcl, lw); !b.res.op(err, "join_busy: final writer sync") {
		return nil
	}
	b.res.key, b.res.ack = w.key, w.ack
	b.res.edits, b.res.editTime = w.typed, phase
	b.res.extra["writer_late_p50_ms"] = median(w.late)
	b.res.extra["writer_late_max_ms"] = pct(w.late, 1)
	b.res.extra["joins"] = float64(joins)

	after := b.countsNow(s.host, "writer", "joiner")
	after.downBytes -= joinTotal
	b.reportPhase(before, after, w.typed)
	b.hostLag(s.host)
	if b.tr != nil {
		b.res.layer["docserve.host.queue_depth_max"] = float64(s.takeQueueMax())
		b.res.layer["docserve.host.snapshot_frames_per_join"] = ratio(float64(b.tr.count("net.host.snap_frames")-snap0), float64(joins))
		b.res.layer["net.join_bytes"] = median(joinBytes)
	}

	for ; checked < w.typed; checked++ {
		check.head.apply(keys[checked])
	}
	b.res.check(check.matches(wcl.Doc()), "join_busy: writer's replica differs from the model")
	b.res.check(s.host.DocString() == check.String(), "join_busy: host's document differs from the model")
	b.res.noteHeap()
	if b.tr != nil {
		if err := s.host.SyncNow(); err != nil {
			return err
		}
		cdoc, cj, err := crashCopy(path, filepath.Join(b.dir, "crash"))
		if err != nil {
			return err
		}
		if err := b.analyzeCrashCopy(cdoc, cj, jw.app.Reg); err != nil {
			return err
		}
		b.analyzeFrames(capture)
	}
	for i := 0; i < joinSaves; i++ {
		b.measureSave(s.host.Checkpoint, "host save")
	}
	// More set-up samples, on a copy of the served file.
	spare := filepath.Join(b.dir, "setup.d")
	if err := copyFile(path, spare); err != nil {
		return err
	}
	for i := 0; i < joinSetupReps; i++ {
		q, err := b.joinSetup(spare, newLane(nil), newLane(nil), nil)
		if err != nil {
			return err
		}
		if err := q.close(); err != nil {
			return err
		}
	}
	b.reportTimings()
	return nil
}

// joinSession is one set-up of join_busy: the host, the writer's replica
// and the joiner's window system.
type joinSession struct {
	s   *served
	wcl *docserve.Client
	jw  *window
}

func (j *joinSession) close() error {
	if j == nil {
		return nil
	}
	var errs []error
	if j.wcl != nil {
		errs = append(errs, j.wcl.Close())
	}
	if j.jw != nil {
		j.jw.close()
	}
	if j.s != nil {
		errs = append(errs, j.s.close())
	}
	return errors.Join(errs...)
}

// joinSetup measures join_busy's set-up once: host file, listener, the
// writer's attach and the joiner's window system.
func (b *bench) joinSetup(path string, lw, lj *lane, capture *capturedFrames) (*joinSession, error) {
	t0 := time.Now()
	j := &joinSession{}
	var err error
	if j.s, err = serve(b.fsys, path, b.tr); err != nil {
		return nil, err
	}
	if j.wcl, err = j.s.dial(path, "writer", lw, "writer", capture); err != nil {
		return nil, errors.Join(err, j.close())
	}
	if j.jw, err = newWindow("ez", lj); err != nil {
		return nil, errors.Join(err, j.close())
	}
	b.res.setup = append(b.res.setup, time.Since(t0).Seconds())
	return j, nil
}
