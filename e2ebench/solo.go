package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"atk/internal/datastream"
	"atk/internal/persist"
	"atk/internal/text"
	"atk/internal/wsys"
)

// solo_edit: one ez session with no network, on a document large enough
// for per-keystroke costs that grow with document size to dominate.
const (
	soloLines     = 200000 // about 8 MB of text
	soloOpens     = 10     // streamed opens per round
	soloPages     = 200    // page-downs per round, from the top
	soloCaretRow  = 4      // visible row the caret is clicked onto
	soloBursts    = 4      // typing bursts per round
	soloBurstKeys = 100    // keystrokes per burst
)

func runSolo(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	path := filepath.Join(b.dir, "solo.d")
	content := genText(rng, soloLines)
	if err := persist.SaveDocument(persist.OS, path, text.NewString(content)); err != nil {
		return fmt.Errorf("writing the input document: %w", err)
	}
	model := newGapBuf(content)
	content = ""

	l := newLane(b.tr)
	if b.tr != nil {
		b.fsys = &traceFS{inner: persist.OS, tr: b.tr, l: l}
	}
	b.quiesce()
	var w *window
	for i := 0; i < setupBefore; i++ {
		nw, err := b.soloSetup(l, path)
		if err != nil {
			return err
		}
		if w != nil {
			w.close()
		}
		w = nw
	}
	defer w.close()

	obs := &keyObs{}
	var scroll, firstEdit []float64
	var pageReads int64
	var lastDF *persist.DocFile
	b.beginPhase()
	before := b.countsNow(nil)
	keyIndex := 0
	for round := 0; b.more(len(b.res.key) < minTail); round++ {
		if lastDF != nil {
			if err := lastDF.Close(); err != nil {
				return err
			}
			lastDF = nil
		}
		// Open: LoadStreaming to first paint, repeated.
		var df *persist.DocFile
		for i := 0; i < soloOpens; i++ {
			id := l.begin("persist.LoadStreaming")
			t0 := time.Now()
			d, err := persist.LoadStreaming(b.fsys, path, w.app.Reg, datastream.Strict)
			tl := time.Since(t0)
			l.end(id)
			if !b.res.op(err, "streamed open") {
				return err
			}
			t1 := time.Now()
			w.show(d.Doc)
			b.res.open = append(b.res.open, ms(time.Since(t0)))
			b.tr.sampleDur("persist.open_us", tl)
			b.tr.sampleDur("core.first_paint_us", time.Since(t1))
			if i < soloOpens-1 {
				if err := d.Close(); err != nil {
					return err
				}
				continue
			}
			df = d
		}
		lastDF = df
		if err := df.StartJournal(); err != nil {
			return fmt.Errorf("starting the journal: %w", err)
		}

		// Focus the text view, then page through from the top while the
		// tail streams in.
		w.clickRow(0)
		r0 := b.tr.count("fs.doc.read_bytes")
		for i := 0; i < soloPages; i++ {
			d := w.typeKey(wsys.KeyDownEvent(wsys.KeyPageDown), -1, nil)
			scroll = append(scroll, ms(d))
		}
		pageReads += b.tr.count("fs.doc.read_bytes") - r0

		// Click the caret onto a visible line; the first keystroke then
		// loads the rest of the document.
		if w.rowPitch == 0 {
			_, top, _ := w.tv.ScrollInfo()
			if err := w.calibrate(model.lineStartOf(top + 1)); err != nil {
				return err
			}
		}
		for burst := 0; burst < soloBursts; burst++ {
			_, top, _ := w.tv.ScrollInfo()
			w.placeCaret(soloCaretRow)
			want := model.lineEndOf(top + soloCaretRow)
			if !b.res.check(w.tv.Dot() == want, "solo_edit: click and End on row %d put the caret at %d, the model's line end is %d", soloCaretRow, w.tv.Dot(), want) {
				return nil
			}
			model.moveTo(want)
			keys := typeBurst(rng, model, soloBurstKeys)
			if b.skew && keyIndex == 0 {
				// The model alone gets one keystroke more.
				model.apply(key{kind: keyChar, r: 'q'})
			}
			m0 := b.memNow()
			start := time.Now()
			for i, k := range keys {
				if burst == 0 && i == 0 {
					d := w.typeKey(k.event(), keyIndex, nil)
					firstEdit = append(firstEdit, ms(d))
					b.res.op(nil, "first keystroke")
					keyIndex++
					m0 = b.memNow()
					start = time.Now()
					continue
				}
				d := w.typeKey(k.event(), keyIndex, obs)
				keyIndex++
				b.res.op(nil, "keystroke")
				b.res.key = append(b.res.key, ms(d))
				b.res.edits++
			}
			b.res.editTime += time.Since(start)
			b.memAdd(m0)
			// The idle moment after a burst: ez's autosave forces the
			// journal to disk.
			if err := df.Sync(); err != nil {
				return fmt.Errorf("journal sync: %w", err)
			}
			b.res.check(w.incrementalMatchesFull(), "solo_edit: incremental repaint differs from a full redraw after burst %d of round %d", burst, round)
			if round == 0 && burst == 0 && b.tr != nil {
				cdoc, cj, err := crashCopy(path, filepath.Join(b.dir, "crash"))
				if err != nil {
					return err
				}
				if err := b.analyzeCrashCopy(cdoc, cj, w.app.Reg); err != nil {
					return err
				}
			}
			// The user saves after each burst.
			b.measureSave(df.Save, "save")
		}
		b.res.check(df.Doc.String() == model.String(), "solo_edit: document differs from the model after round %d", round)
	}
	b.res.noteHeap()
	after := b.countsNow(nil)
	b.reportPhase(before, after, b.res.edits)
	obs.report(b.res.layer)
	b.reportTimings()
	if b.tr != nil {
		b.res.layer["persist.tail_read_bytes_per_page"] = ratio(float64(pageReads), float64(len(scroll)))
	}
	// solo_edit has one view and no host: a keystroke is acknowledged by
	// the local journal and seen by every view when it is repainted.
	b.res.ack = b.res.key
	b.res.seen = b.res.key
	b.res.extra["scroll_p50_ms"] = median(scroll)
	b.res.extra["first_edit_ms"] = median(firstEdit)

	if err := lastDF.Close(); err != nil {
		return err
	}
	// The saved file, re-read strictly and eagerly, is the model.
	saved, err := persist.Load(persist.OS, path, w.app.Reg, datastream.Strict)
	if !b.res.op(err, "strict re-read of the saved file") {
		return nil
	}
	b.res.check(saved.Doc.String() == model.String(), "solo_edit: saved file differs from the model")
	for i := 0; i < setupAfter; i++ {
		nw, err := b.soloSetup(l, path)
		if err != nil {
			return err
		}
		nw.close()
	}
	if b.tr != nil {
		fresh, err := persist.LoadStreaming(persist.OS, path, w.app.Reg, datastream.Strict)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := fresh.Doc.LoadAll(); err != nil {
			return err
		}
		b.res.layer["text.load_all_ms"] = ms(time.Since(t0))
		if err := fresh.Close(); err != nil {
			return err
		}
	}
	return nil
}

// soloSetup measures ez's start-up on the document once: window system,
// registry, streamed open, view tree and first paint.
func (b *bench) soloSetup(l *lane, path string) (*window, error) {
	t0 := time.Now()
	w, err := newWindow("ez", l)
	if err != nil {
		return nil, err
	}
	df, err := persist.LoadStreaming(b.fsys, path, w.app.Reg, datastream.Strict)
	if err != nil {
		w.close()
		return nil, err
	}
	w.show(df.Doc)
	b.res.setup = append(b.res.setup, time.Since(t0).Seconds())
	if err := df.Close(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}
