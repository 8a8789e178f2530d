package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"atk/internal/components"
	"atk/internal/docserve"
	"atk/internal/persist"
	"atk/internal/table"
	"atk/internal/text"
)

// duet_styled: two windowless replicas edit a styled document with an
// embedded table, concurrently: every commit is rebased across the other
// replica's edit and followed by a host style checkpoint.
const (
	duetLines  = 500
	duetRuns   = 240 // style runs in the input document
	duetTable  = 8   // the embedded table is duetTable × duetTable
	duetPairs  = 500 // edit pairs per round
	duetMinLen = 2000
)

var duetStyles = []string{"bold", "italic", "typewriter"}

// duetInput builds the input document: generated lines, duetRuns styled
// spans, and a numbered table embedded at the start of the middle line.
// It returns the document, the anchor's position and the table's cells.
func duetInput(rng *rand.Rand) (*text.Data, int, [][]float64, error) {
	content := genText(rng, duetLines)
	doc := text.NewString(content)
	seg := len([]rune(content)) / duetRuns
	for i := 0; i < duetRuns; i++ {
		start := i*seg + rng.Intn(seg/2)
		end := start + 1 + rng.Intn(seg/2)
		if err := doc.SetStyle(start, end, duetStyles[rng.Intn(len(duetStyles))]); err != nil {
			return nil, 0, nil, err
		}
	}
	td := table.New(duetTable, duetTable)
	cells := make([][]float64, duetTable)
	for r := range cells {
		cells[r] = make([]float64, duetTable)
		for c := range cells[r] {
			cells[r][c] = float64(rng.Intn(1000))
			if err := td.SetNumber(r, c, cells[r][c]); err != nil {
				return nil, 0, nil, err
			}
		}
	}
	anchor := newGapBuf(content).lineStartOf(duetLines / 2)
	if err := doc.Embed(anchor, td, ""); err != nil {
		return nil, 0, nil, err
	}
	return doc, anchor, cells, nil
}

// duetSide is one replica of duet_styled with the model of its half of
// the text and of its table columns.
type duetSide struct {
	cl    *docserve.Client
	lane  *lane
	half  *gapBuf // its half of the text, without the anchor
	right bool    // the half after the table (else before it)
	cols  [2]int  // its table columns [lo, hi)
	cells [][]float64
}

// anchor returns the replica's current table anchor position.
func (d *duetSide) anchor() (int, *table.Data, error) {
	for _, e := range d.cl.Doc().Embeds() {
		if td, ok := e.Obj.(*table.Data); ok {
			return e.Pos, td, nil
		}
	}
	return 0, nil, errors.New("replica has no embedded table")
}

// edit makes one seeded edit in the replica's own half and columns,
// feeding the same edit to its model.
func (d *duetSide) edit(rng *rand.Rand) error {
	anchor, td, err := d.anchor()
	if err != nil {
		return err
	}
	base := 0
	if d.right {
		base = anchor + 1
	}
	n := d.half.len()
	doc := d.cl.Doc()
	x := rng.Intn(100)
	switch {
	case x < 40 || n < duetMinLen:
		pos := rng.Intn(n + 1)
		w := vocabulary[rng.Intn(len(vocabulary))] + " "
		d.half.moveTo(pos)
		for _, r := range w {
			d.half.apply(key{kind: keyChar, r: r})
		}
		return doc.Insert(base+pos, w)
	case x < 65:
		k := 1 + rng.Intn(5)
		pos := rng.Intn(n - k)
		d.half.moveTo(pos + k)
		for i := 0; i < k; i++ {
			d.half.apply(key{kind: keyBackspace})
		}
		return doc.Delete(base+pos, k)
	case x < 85:
		k := 5 + rng.Intn(36)
		pos := rng.Intn(n - k)
		return doc.SetStyle(base+pos, base+pos+k, duetStyles[rng.Intn(len(duetStyles))])
	default:
		r := rng.Intn(duetTable)
		c := d.cols[0] + rng.Intn(d.cols[1]-d.cols[0])
		v := float64(rng.Intn(100000))
		d.cells[r][c] = v
		return td.SetNumber(r, c, v)
	}
}

// checkModel compares the replica's half and columns with its model.
func (d *duetSide) checkModel() error {
	anchor, td, err := d.anchor()
	if err != nil {
		return err
	}
	doc := d.cl.Doc()
	half := doc.Slice(0, anchor)
	if d.right {
		half = doc.Slice(anchor+1, doc.Len())
	}
	if half != d.half.String() {
		return errors.New("text half differs from the model")
	}
	for r := 0; r < duetTable; r++ {
		for c := d.cols[0]; c < d.cols[1]; c++ {
			v, err := td.Value(r, c)
			if err != nil || v != d.cells[r][c] {
				return fmt.Errorf("cell (%d,%d) = %v, %v; the model has %v", r, c, v, err, d.cells[r][c])
			}
		}
	}
	return nil
}

func runDuet(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	orig := filepath.Join(b.dir, "input.d")
	doc, anchor, cells, err := duetInput(rng)
	if err != nil {
		return fmt.Errorf("building the input document: %w", err)
	}
	if err := persist.SaveDocument(persist.OS, orig, doc); err != nil {
		return fmt.Errorf("writing the input document: %w", err)
	}
	content := doc.String()
	b.quiesce()
	la, lb := newLane(b.tr), newLane(b.tr)
	capture := &capturedFrames{}
	path := filepath.Join(b.dir, "duet.d")

	var before, after phaseCounts
	b.beginPhase()
	for round := 0; b.more(len(b.res.ack) < minTail || len(b.res.seen) < minTail); round++ {
		// A fresh host on the input document each round, so that every
		// round does the same work.
		if err := copyFile(orig, path); err != nil {
			return err
		}
		if err := copyFile(persist.IndexPath(orig), persist.IndexPath(path)); err != nil {
			return err
		}
		sides := [2]*duetSide{
			{lane: la, half: newGapBuf(string([]rune(content)[:anchor])), cols: [2]int{0, duetTable / 2}},
			{lane: lb, half: newGapBuf(string([]rune(content)[anchor+1:])), right: true, cols: [2]int{duetTable / 2, duetTable}},
		}
		for _, d := range sides {
			d.cells = make([][]float64, duetTable)
			for r := range cells {
				d.cells[r] = append([]float64(nil), cells[r]...)
			}
		}
		if b.skew {
			sides[0].half.apply(key{kind: keyChar, r: 'q'})
		}

		// Set-up: host file, listener, two attaches.
		b.quiesce()
		t0 := time.Now()
		s, err := serve(b.fsys, path, b.tr)
		if err != nil {
			return err
		}
		var capA *capturedFrames
		if round == 0 {
			capA = capture
		}
		if sides[0].cl, err = s.dial(path, "alice", la, "a", capA); err != nil {
			return err
		}
		if sides[1].cl, err = s.dial(path, "bob", lb, "b", nil); err != nil {
			return err
		}
		b.res.setup = append(b.res.setup, time.Since(t0).Seconds())
		if err := b.duetRound(s, sides, rng, round, &before, &after); err != nil {
			return err
		}
	}
	b.reportPhase(before, after, 2*duetPairs)
	b.reportTimings()
	if b.tr != nil {
		b.analyzeFrames(capture)
	}
	return nil
}

// duetRound runs one round's edit pairs, then the crash copy, save,
// reopen and checks, and closes the round's host and replicas.
func (b *bench) duetRound(s *served, sides [2]*duetSide, rng *rand.Rand, round int, before, after *phaseCounts) (err error) {
	defer func() {
		for _, d := range sides {
			if d.cl != nil {
				err = errors.Join(err, d.cl.Close())
			}
		}
		err = errors.Join(err, s.close())
	}()
	if round == 0 {
		s.host.LagWindow()
		s.takeQueueMax()
		*before = b.countsNow(s.host, "a", "b")
	}
	m0 := b.memNow()
	start := time.Now()
	var ts [2]time.Time
	for i := 0; i < duetPairs; i++ {
		// Both replicas edit before either is acknowledged.
		for j, d := range sides {
			d.lane.setKey(2*i + j)
			id := d.lane.begin("edit")
			ts[j] = time.Now()
			err := d.edit(rng)
			b.res.key = append(b.res.key, ms(time.Since(ts[j])))
			d.lane.end(id)
			if err != nil {
				return fmt.Errorf("local edit: %w", err)
			}
		}
		failed := false
		for j, d := range sides {
			if !b.res.op(b.syncAck(d.cl, d.lane), "duet_styled: edit ack") {
				failed = true
				continue
			}
			b.res.ack = append(b.res.ack, ms(time.Since(ts[j])))
		}
		target := max(sides[0].cl.Confirmed(), sides[1].cl.Confirmed())
		for j, d := range sides {
			// Replica j applies the other replica's edit.
			if err := b.waitSeq(d.cl, target, d.lane); err != nil {
				b.res.failed++
				b.res.failures = append(b.res.failures, fmt.Sprintf("duet_styled: edit not seen: %v", err))
				failed = true
				continue
			}
			b.res.seen = append(b.res.seen, ms(time.Since(ts[1-j])))
		}
		for _, d := range sides {
			d.lane.setKey(-1)
		}
		if failed {
			return nil
		}
		b.res.edits += 2
	}
	b.res.editTime += time.Since(start)
	b.memAdd(m0)
	if round == 0 {
		*after = b.countsNow(s.host, "a", "b")
		b.hostLag(s.host)
		if b.tr != nil {
			b.res.layer["docserve.host.queue_depth_max"] = float64(s.takeQueueMax())
		}
	}
	hostSeq := s.host.Stats().Seq
	for _, d := range sides {
		if err := b.waitSeq(d.cl, hostSeq, d.lane); err != nil {
			return fmt.Errorf("final catch-up: %w", err)
		}
	}

	// The host's document and journal as they stand on disk, then a save.
	if err := s.host.SyncNow(); err != nil {
		return err
	}
	path := s.host.Name()
	cdoc, cj, err := crashCopy(path, filepath.Join(filepath.Dir(path), fmt.Sprintf("crash%d", round)))
	if err != nil {
		return err
	}
	b.measureSave(s.host.Checkpoint, "host save")
	reg, err := components.NewRegistry()
	if err != nil {
		return err
	}
	if round == 0 && b.tr != nil {
		if err := b.analyzeCrashCopy(cdoc, cj, reg); err != nil {
			return err
		}
	}

	// Reopen the crash copy: journal replay.
	t0 := time.Now()
	h2, err := docserve.OpenHostFile(b.fsys, cdoc, reg, docserve.HostOptions{})
	if !b.res.op(err, "duet_styled: reopen of the crash copy") {
		return nil
	}
	b.res.open = append(b.res.open, ms(time.Since(t0)))
	b.res.noteHeap()

	for _, d := range sides {
		if err := d.checkModel(); err != nil {
			b.res.problem("duet_styled: round %d, replica %s: %v", round, map[bool]string{false: "a", true: "b"}[d.right], err)
		}
	}
	hostEnc, _, err := s.host.Snapshot()
	if err != nil {
		return err
	}
	crashEnc, _, err := h2.Snapshot()
	if err != nil {
		return err
	}
	b.res.check(bytes.Equal(hostEnc, crashEnc), "duet_styled: round %d: the reopened crash copy differs from the host", round)
	for _, d := range sides {
		enc, err := persist.EncodeDocument(d.cl.Doc())
		if err != nil {
			return err
		}
		b.res.check(bytes.Equal(hostEnc, enc), "duet_styled: round %d: a replica differs from the host", round)
	}
	return h2.Close()
}
