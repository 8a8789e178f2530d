package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"atk/internal/class"
	"atk/internal/core"
	"atk/internal/datastream"
	"atk/internal/docserve"
	"atk/internal/graphics"
	"atk/internal/ops"
	"atk/internal/persist"
	"atk/internal/text"
	"atk/internal/wsys"
)

// perLayer lists the per-layer metrics a traced run prints, by module.
// A metric a workload's path does not cross reads 0, as does a p99 with
// fewer than minTail samples behind it.
var perLayer = []struct{ name, unit string }{
	{"core.flush_us_p50", "us"},
	{"core.remote_flush_us_p50", "us"},
	{"core.first_paint_ms_p50", "ms"},
	{"core.full_repaints_per_1k_keys", "1/1k-keys"},
	{"memwin.pixels_per_key", "px/key"},
	{"memwin.draw_ops_per_key", "1/key"},
	{"textview.repair_us_p50", "us"},
	{"textview.repair_us_p99", "us"},
	{"text.edit_us_p50", "us"},
	{"text.load_all_ms", "ms"},
	{"persist.open_ms", "ms"},
	{"persist.tail_read_bytes_per_page", "B/page"},
	{"persist.journal_bytes_per_edit", "B/edit"},
	{"persist.journal_writes_per_edit", "1/edit"},
	{"persist.fsyncs_per_edit", "1/edit"},
	{"persist.fsync_us_p50", "us"},
	{"persist.fsync_us_p99", "us"},
	{"persist.save_write_bytes", "B"},
	{"persist.save_fsyncs", "count"},
	{"persist.encode_ms", "ms"},
	{"persist.replay_ms", "ms"},
	{"persist.replay_records", "count"},
	{"datastream.snapshot_decode_ms", "ms"},
	{"datastream.frame_codec_us_p50", "us"},
	{"ops.decode_us_p50", "us"},
	{"ops.apply_us_p50", "us"},
	{"ops.xform_us_p50", "us"},
	{"ops.checkpoint_bytes_p50", "B"},
	{"docserve.client.sync_wait_us_p50", "us"},
	{"docserve.client.pump_us_p50", "us"},
	{"docserve.client.connect_ms_p50", "ms"},
	{"docserve.host.commit_us_p50", "us"},
	{"docserve.host.fanout_lag_avg_us", "us"},
	{"docserve.host.fanout_lag_max_us", "us"},
	{"docserve.host.checkpoints_per_edit", "1/edit"},
	{"docserve.host.queue_depth_max", "frames"},
	{"docserve.host.snapshot_frames_per_join", "1/join"},
	{"net.up_bytes_per_edit", "B/edit"},
	{"net.down_bytes_per_edit", "B/edit"},
	{"net.host_writes_per_edit", "1/edit"},
	{"net.join_bytes", "B"},
	{"runtime.alloc_bytes_per_edit", "B/edit"},
	{"runtime.gc_cycles_per_1k_edits", "1/1k-edits"},
}

// keyObs gathers a windowed typist's per-keystroke layer figures.
type keyObs struct {
	edit, repair, flush []float64 // µs
	keys, full          int
	pixels, drawOps     int64
}

// typeKey injects one keystroke into w as a window-system key event and
// returns how long HandleEvent took: dispatch, edit, change notification
// and repaint. With obs set and tracing on, the observer probes split that
// time by layer.
func (w *window) typeKey(ev wsys.Event, i int, obs *keyObs) time.Duration {
	l := w.l
	l.setKey(i)
	ras := w.win.Raster()
	p0, o0 := ras.PixelsTouched(), ras.Ops()
	var ts int64
	if l.tr != nil {
		ts = l.tr.now()
	}
	id := l.begin("core.HandleEvent")
	t0 := time.Now()
	w.im.HandleEvent(ev)
	d := time.Since(t0)
	l.end(id)
	if obs != nil && l.tr != nil {
		obs.keys++
		obs.pixels += ras.PixelsTouched() - p0
		obs.drawOps += ras.Ops() - o0
		if l.firstBefore > 0 {
			obs.edit = append(obs.edit, float64(l.firstBefore-ts)/1e3)
			if l.firstAfter > 0 {
				obs.repair = append(obs.repair, float64(l.firstAfter-l.firstBefore)/1e3)
				obs.flush = append(obs.flush, float64(ts+int64(d)-l.lastAfter)/1e3)
			}
		}
		if ras.Ops() > o0 && covers(ras.LastFlushRegion(), w.tvRect()) {
			obs.full++
		}
	}
	l.setKey(-1)
	return d
}

// report stores the keystroke figures as per-layer metrics.
func (o *keyObs) report(layer map[string]float64) {
	layer["text.edit_us_p50"] = median(o.edit)
	layer["textview.repair_us_p50"] = median(o.repair)
	layer["textview.repair_us_p99"] = tail(o.repair)
	layer["core.flush_us_p50"] = median(o.flush)
	layer["core.full_repaints_per_1k_keys"] = ratio(1000*float64(o.full), float64(o.keys))
	layer["memwin.pixels_per_key"] = ratio(float64(o.pixels), float64(o.keys))
	layer["memwin.draw_ops_per_key"] = ratio(float64(o.drawOps), float64(o.keys))
}

// phaseCounts snapshots the counters that per-edit ratios are taken over.
type phaseCounts struct {
	journalBytes, journalWrites, journalS int64
	upBytes, downBytes, hostWrites        int64
	host                                  docserve.Stats
}

func (b *bench) countsNow(host *docserve.Host, roles ...string) phaseCounts {
	c := phaseCounts{
		journalBytes:  b.tr.count("fs.journal.write_bytes"),
		journalWrites: b.tr.count("fs.journal.writes"),
		journalS:      b.tr.count("fs.journal.syncs"),
		hostWrites:    b.tr.count("net.host.writes"),
	}
	for _, r := range roles {
		c.upBytes += b.tr.count("net." + r + ".write_bytes")
		c.downBytes += b.tr.count("net." + r + ".read_bytes")
	}
	if host != nil {
		c.host = host.Stats()
	}
	return c
}

// memSnap is the allocation count and collection count at one moment.
type memSnap struct{ alloc, gcs uint64 }

// memNow snapshots the runtime's counters (traced runs only: reading them
// stops the world).
func (b *bench) memNow() memSnap {
	if b.tr == nil {
		return memSnap{}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, uint64(m.NumGC)}
}

// memAdd adds what was allocated and collected since a to the run's
// editing totals.
func (b *bench) memAdd(a memSnap) {
	if b.tr == nil {
		return
	}
	z := b.memNow()
	b.allocs += z.alloc - a.alloc
	b.gcs += z.gcs - a.gcs
}

// reportPhase stores the per-edit ratios between two snapshots.
func (b *bench) reportPhase(a, z phaseCounts, edits int) {
	if b.tr == nil {
		return
	}
	e := float64(edits)
	L := b.res.layer
	L["runtime.alloc_bytes_per_edit"] = ratio(float64(b.allocs), e)
	L["runtime.gc_cycles_per_1k_edits"] = ratio(1000*float64(b.gcs), e)
	L["persist.journal_bytes_per_edit"] = ratio(float64(z.journalBytes-a.journalBytes), e)
	L["persist.journal_writes_per_edit"] = ratio(float64(z.journalWrites-a.journalWrites), e)
	L["persist.fsyncs_per_edit"] = ratio(float64(z.journalS-a.journalS), e)
	L["net.up_bytes_per_edit"] = ratio(float64(z.upBytes-a.upBytes), e)
	L["net.down_bytes_per_edit"] = ratio(float64(z.downBytes-a.downBytes), e)
	L["net.host_writes_per_edit"] = ratio(float64(z.hostWrites-a.hostWrites), e)
	L["docserve.host.checkpoints_per_edit"] = ratio(float64(z.host.StyleCheckpoints-a.host.StyleCheckpoints), e)
	fs := b.tr.get("fs.journal.sync_us")
	L["persist.fsync_us_p50"] = median(fs)
	L["persist.fsync_us_p99"] = tail(fs)
}

// reportTimings stores the medians of the traced samples the wrappers and
// loops collected under their own names.
func (b *bench) reportTimings() {
	if b.tr == nil {
		return
	}
	L := b.res.layer
	L["docserve.host.commit_us_p50"] = median(b.tr.get("host.commit_us"))
	L["docserve.client.connect_ms_p50"] = median(b.tr.get("client.connect_us")) / 1e3
	L["docserve.client.sync_wait_us_p50"] = median(b.tr.get("client.sync_wait_us"))
	L["docserve.client.pump_us_p50"] = median(b.tr.get("client.pump_us"))
	L["core.remote_flush_us_p50"] = median(b.tr.get("core.remote_flush_us"))
	L["core.first_paint_ms_p50"] = median(b.tr.get("core.first_paint_us")) / 1e3
	L["persist.open_ms"] = median(b.tr.get("persist.open_us")) / 1e3
}

// hostLag stores the host's fan-out lag over the window since the last
// LagWindow call.
func (b *bench) hostLag(h *docserve.Host) {
	avg, mx, _ := h.LagWindow()
	if b.tr != nil {
		b.res.layer["docserve.host.fanout_lag_avg_us"] = us(avg)
		b.res.layer["docserve.host.fanout_lag_max_us"] = us(mx)
	}
}

// measureSave runs one timed save and, traced, records its write volume.
func (b *bench) measureSave(save func() error, what string) {
	w0, s0 := b.tr.count("fs.write_bytes"), b.tr.count("fs.syncs")+b.tr.count("fs.syncdirs")
	t0 := time.Now()
	err := save()
	d := time.Since(t0)
	if !b.res.op(err, what) {
		return
	}
	b.res.save = append(b.res.save, ms(d))
	if b.tr != nil {
		b.res.layer["persist.save_write_bytes"] = float64(b.tr.count("fs.write_bytes") - w0)
		b.res.layer["persist.save_fsyncs"] = float64(b.tr.count("fs.syncs") + b.tr.count("fs.syncdirs") - s0)
	}
}

// copyFile copies src to dst byte for byte.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// crashCopy copies a document and its journal as they stand on disk into
// dir, the way a crash would leave them, and returns the copied paths.
func crashCopy(docPath, dir string) (doc, journal string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	doc = filepath.Join(dir, filepath.Base(docPath))
	journal = persist.JournalPath(doc)
	if err := copyFile(docPath, doc); err != nil {
		return "", "", err
	}
	if err := copyFile(persist.JournalPath(docPath), journal); err != nil {
		return "", "", err
	}
	return doc, journal, nil
}

// analyzeCrashCopy measures the persist, ops and datastream layers on a
// crash copy: journal replay, then every record decoded and applied to the
// saved base through the ops package, consecutive records transformed
// across each other, and the document's encoding decoded strictly.
func (b *bench) analyzeCrashCopy(doc, journal string, reg *class.Registry) error {
	L := b.res.layer
	t0 := time.Now()
	rep, err := persist.ReplayJournal(persist.OS, journal)
	if err != nil {
		return fmt.Errorf("replaying crash copy: %w", err)
	}
	L["persist.replay_ms"] = ms(time.Since(t0))
	L["persist.replay_records"] = float64(len(rep.Records))

	base := doc + ".base"
	if err := copyFile(doc, base); err != nil {
		return err
	}
	df, err := persist.Load(persist.OS, base, reg, datastream.Strict)
	if err != nil {
		return fmt.Errorf("loading crash copy base: %w", err)
	}
	var dec, app, cp []float64
	var decoded []ops.Op
	for _, p := range rep.Records {
		t0 := time.Now()
		op, err := ops.Decode(p)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("decoding journal record: %w", err)
		}
		if err := ops.Apply(df.Doc, op); err != nil {
			return fmt.Errorf("applying journal record: %w", err)
		}
		app = append(app, us(time.Since(t1)))
		dec = append(dec, us(t1.Sub(t0)))
		if op.Kind == ops.KindText && op.Text.Kind == text.RecStyle {
			cp = append(cp, float64(len(p)))
		}
		if len(decoded) < 4000 {
			decoded = append(decoded, op)
		}
	}
	var xf []float64
	for i := 0; i+1 < len(decoded); i += 2 {
		x, y := []ops.Op{decoded[i]}, []ops.Op{decoded[i+1]}
		t0 := time.Now()
		ops.XformDual(x, y, true)
		xf = append(xf, us(time.Since(t0)))
	}
	L["ops.decode_us_p50"] = median(dec)
	L["ops.apply_us_p50"] = median(app)
	L["ops.xform_us_p50"] = median(xf)
	L["ops.checkpoint_bytes_p50"] = median(cp)
	return b.analyzeEncoding(df.Doc, reg)
}

// analyzeEncoding times EncodeDocument and the strict decode of its output.
func (b *bench) analyzeEncoding(doc *text.Data, reg *class.Registry) error {
	t0 := time.Now()
	enc, err := persist.EncodeDocument(doc)
	if err != nil {
		return err
	}
	b.res.layer["persist.encode_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	r := datastream.NewReaderOptions(bytes.NewReader(enc), datastream.Options{Mode: datastream.Strict})
	if _, err := core.ReadObject(r, reg); err != nil {
		return fmt.Errorf("decoding the document's encoding: %w", err)
	}
	b.res.layer["datastream.snapshot_decode_ms"] = ms(time.Since(t0))
	return nil
}

// analyzeFrames times the datastream escape and decode of each captured
// op frame: the physical lines as sent are decoded to the logical frame,
// which is escaped again.
func (b *bench) analyzeFrames(c *capturedFrames) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var xs []float64
	var logical, wire []byte
	for _, f := range c.frames {
		t0 := time.Now()
		logical = logical[:0]
		for _, line := range bytes.SplitAfter(f, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\n"))
			if len(line) == 0 {
				continue
			}
			var err error
			logical, _, err = datastream.DecodeAppend(logical, line)
			if err != nil {
				b.res.problem("captured op frame does not decode: %v", err)
				return
			}
		}
		wire = datastream.AppendEscapedBytes(wire[:0], logical)
		xs = append(xs, us(time.Since(t0)))
		if !bytes.Equal(wire, f) {
			b.res.problem("captured op frame does not re-escape to the bytes sent")
			return
		}
	}
	b.res.layer["datastream.frame_codec_us_p50"] = median(xs)
}

// covers reports whether region r covers all of rect.
func covers(r graphics.Region, rect graphics.Rect) bool {
	return r.IntersectRect(rect).Area() == rect.Dx()*rect.Dy()
}
