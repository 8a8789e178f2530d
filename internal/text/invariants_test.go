package text

import (
	"testing"
	"testing/quick"

	"atk/internal/core"
)

// checkInvariants asserts the structural invariants every text object
// maintains across arbitrary edits:
//   - style runs are sorted, non-overlapping, in range, and non-empty;
//   - embeds are sorted by position, in range, and each sits on an anchor
//     rune;
//   - every anchor rune in the buffer has exactly one embed record.
func checkInvariants(t *testing.T, d *Data) bool {
	t.Helper()
	prevEnd := -1
	for _, r := range d.Runs() {
		if r.Start >= r.End {
			t.Logf("empty run %+v", r)
			return false
		}
		if r.Start < prevEnd {
			t.Logf("overlapping runs at %+v", r)
			return false
		}
		if r.Start < 0 || r.End > d.Len() {
			t.Logf("run out of range %+v (len %d)", r, d.Len())
			return false
		}
		prevEnd = r.End
	}
	prevPos := -1
	anchorsSeen := 0
	for _, e := range d.Embeds() {
		if e.Pos <= prevPos {
			t.Logf("embeds out of order at %d", e.Pos)
			return false
		}
		if e.Pos < 0 || e.Pos >= d.Len() {
			t.Logf("embed out of range at %d (len %d)", e.Pos, d.Len())
			return false
		}
		r, err := d.RuneAt(e.Pos)
		if err != nil || r != AnchorRune {
			t.Logf("embed at %d not on anchor (rune %q)", e.Pos, r)
			return false
		}
		prevPos = e.Pos
		anchorsSeen++
	}
	anchorsInBuffer := 0
	for i := 0; i < d.Len(); i++ {
		if r, _ := d.RuneAt(i); r == AnchorRune {
			anchorsInBuffer++
		}
	}
	if anchorsInBuffer != anchorsSeen {
		t.Logf("anchors %d != embeds %d", anchorsInBuffer, anchorsSeen)
		return false
	}
	return true
}

// TestQuickInvariantsUnderRandomOps drives a random mixed workload —
// inserts, deletes, style applications, embeds — and checks the
// invariants after every operation.
func TestQuickInvariantsUnderRandomOps(t *testing.T) {
	type op struct {
		Kind uint8
		A, B uint16
		S    string
	}
	styles := []string{"body", "bold", "italic", "title", "typewriter"}
	f := func(ops []op) bool {
		d := NewString("seed content for the invariant test\n")
		for _, o := range ops {
			n := d.Len()
			switch o.Kind % 4 {
			case 0: // insert
				pos := int(o.A) % (n + 1)
				txt := o.S
				if len(txt) > 20 {
					txt = txt[:20]
				}
				for _, r := range txt {
					if r == AnchorRune {
						txt = ""
						break
					}
				}
				_ = d.Insert(pos, txt)
			case 1: // delete
				if n == 0 {
					continue
				}
				pos := int(o.A) % n
				cnt := int(o.B) % (n - pos + 1)
				_ = d.Delete(pos, cnt)
			case 2: // style
				if n == 0 {
					continue
				}
				s := int(o.A) % n
				e := s + int(o.B)%(n-s+1)
				_ = d.SetStyle(s, e, styles[int(o.B)%len(styles)])
			case 3: // embed
				pos := int(o.A) % (n + 1)
				_ = d.Embed(pos, core.NewUnknownData("blob"), "blobview")
			}
			if !checkInvariants(t, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOracleMirror drives Insert/Delete/Undo/Redo/Compact against a
// plain []rune oracle and checks every indexed read path — RuneAt, Slice,
// LineStart/LineEnd/LineCount, and cursor iteration both ways — agrees
// with the oracle after each step. This is the safety net for the piece
// index and the incrementally-maintained newline index.
func TestQuickOracleMirror(t *testing.T) {
	type op struct {
		Kind uint8
		A, B uint16
		S    string
	}
	f := func(ops []op) bool {
		d := NewString("seed\nline two\n")
		oracle := []rune("seed\nline two\n")
		var undoStack, redoStack [][]rune
		for _, o := range ops {
			n := len(oracle)
			switch o.Kind % 5 {
			case 0: // insert
				pos := int(o.A) % (n + 1)
				txt := o.S
				if len(txt) > 12 {
					txt = txt[:12]
				}
				ok := true
				for _, r := range txt {
					if r == AnchorRune {
						ok = false
					}
				}
				if !ok {
					continue
				}
				rs := []rune(txt)
				if len(rs) == 0 {
					continue // Insert("") records no op
				}
				if err := d.Insert(pos, txt); err != nil {
					return false
				}
				undoStack = append(undoStack, append([]rune(nil), oracle...))
				redoStack = nil
				oracle = append(oracle[:pos:pos], append(rs, oracle[pos:]...)...)
			case 1: // delete
				if n == 0 {
					continue
				}
				pos := int(o.A) % n
				cnt := int(o.B) % (n - pos + 1)
				if cnt == 0 {
					continue // Delete of zero records no op
				}
				if err := d.Delete(pos, cnt); err != nil {
					return false
				}
				undoStack = append(undoStack, append([]rune(nil), oracle...))
				redoStack = nil
				oracle = append(oracle[:pos:pos], oracle[pos+cnt:]...)
			case 2: // undo
				if len(undoStack) == 0 {
					if d.Undo() {
						return false
					}
					continue
				}
				if !d.Undo() {
					return false
				}
				redoStack = append(redoStack, oracle)
				oracle = undoStack[len(undoStack)-1]
				undoStack = undoStack[:len(undoStack)-1]
			case 3: // redo
				if len(redoStack) == 0 {
					if d.Redo() {
						return false
					}
					continue
				}
				if !d.Redo() {
					return false
				}
				undoStack = append(undoStack, oracle)
				oracle = redoStack[len(redoStack)-1]
				redoStack = redoStack[:len(redoStack)-1]
			case 4: // compact: content identical, indexes rebuilt
				d.Compact()
			}
			if !agreesWith(t, d, oracle) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSliceConsistency: Slice(0,i)+Slice(i,len) == String for any
// split point, however fragmented the piece table is.
func TestQuickSliceConsistency(t *testing.T) {
	f := func(edits []uint16, split uint16) bool {
		d := NewString("base")
		for _, e := range edits {
			pos := int(e) % (d.Len() + 1)
			if e%3 == 0 && d.Len() > 0 {
				_ = d.Delete(pos%d.Len(), 1)
			} else {
				_ = d.Insert(pos, "ab")
			}
		}
		i := 0
		if d.Len() > 0 {
			i = int(split) % d.Len()
		}
		return d.Slice(0, i)+d.Slice(i, d.Len()) == d.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStyleAtMatchesRuns: StyleAt agrees with a brute-force scan of
// the run list for every position.
func TestQuickStyleAtMatchesRuns(t *testing.T) {
	f := func(spans []uint16) bool {
		d := NewString("0123456789012345678901234567890123456789")
		styles := []string{"bold", "italic", "title"}
		for i, sp := range spans {
			if i >= 8 {
				break
			}
			s := int(sp) % d.Len()
			e := s + int(sp/64)%(d.Len()-s+1)
			_ = d.SetStyle(s, e, styles[i%len(styles)])
		}
		for pos := 0; pos < d.Len(); pos++ {
			want := DefaultStyleName
			for _, r := range d.Runs() {
				if r.Start <= pos && pos < r.End {
					want = r.Style
				}
			}
			if d.StyleAt(pos) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
