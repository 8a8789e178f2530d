package chunked

import (
	"math/rand"
	"testing"
)

// elem is one element of the plain-slice oracle.
type elem struct{ n, v int }

// check compares s with the oracle element by element, forwards and
// backwards, and checks the chunk invariants.
func check(t *testing.T, step int, s *Seq[int], want []elem) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(want))
	}
	total := 0
	for _, e := range want {
		total += e.n
	}
	if s.Total() != total {
		t.Fatalf("step %d: Total = %d, want %d", step, s.Total(), total)
	}
	it := s.At(0)
	pos := 0
	for i, e := range want {
		if !it.Ok() || it.Index() != i || it.Start() != pos || it.Len() != e.n || it.Val() != e.v {
			t.Fatalf("step %d: element %d = (ok %v, i %d, start %d, len %d, val %d), want (start %d, len %d, val %d)",
				step, i, it.Ok(), it.Index(), it.Start(), it.Len(), it.Val(), pos, e.n, e.v)
		}
		pos += e.n
		it.Next()
	}
	if it.Ok() || it.Index() != len(want) || it.Start() != total {
		t.Fatalf("step %d: iterator past the end = (ok %v, i %d, start %d)", step, it.Ok(), it.Index(), it.Start())
	}
	for i := len(want) - 1; i >= 0; i-- {
		it.Prev()
		pos -= want[i].n
		if it.Index() != i || it.Start() != pos || it.Val() != want[i].v {
			t.Fatalf("step %d: Prev to %d = (i %d, start %d, val %d)", step, i, it.Index(), it.Start(), it.Val())
		}
	}
	n, p := 0, 0
	if len(s.starts) != len(s.chunks) || len(s.firsts) != len(s.chunks) ||
		len(s.gstarts) != (len(s.chunks)+group-1)/group || len(s.gfirsts) != len(s.gstarts) {
		t.Fatalf("step %d: %d chunks with %d/%d chunk offsets and %d/%d group offsets",
			step, len(s.chunks), len(s.starts), len(s.firsts), len(s.gstarts), len(s.gfirsts))
	}
	for c, ch := range s.chunks {
		if len(ch.lens) == 0 || len(ch.lens) > maxChunk || len(ch.lens) != len(ch.vals) {
			t.Fatalf("step %d: chunk %d holds %d lengths and %d values", step, c, len(ch.lens), len(ch.vals))
		}
		g := c / group
		if got, gotN := s.gstarts[g]+s.starts[c], s.gfirsts[g]+s.firsts[c]; got != p || gotN != n {
			t.Fatalf("step %d: chunk %d starts at (%d, #%d), want (%d, #%d)", step, c, got, gotN, p, n)
		}
		sum := 0
		for _, l := range ch.lens {
			sum += l
		}
		if sum != ch.total {
			t.Fatalf("step %d: chunk %d total %d, lengths sum to %d", step, c, ch.total, sum)
		}
		p += sum
		n += len(ch.lens)
	}
}

// checkLookups compares At with the oracle at every index, and Find at
// every element boundary, one past it, and at -1 and Total+1.
func checkLookups(t *testing.T, step int, s *Seq[int], want []elem) {
	t.Helper()
	for i := range want {
		if it := s.At(i); it.Index() != i || it.Val() != want[i].v {
			t.Fatalf("step %d: At(%d) = (i %d, val %d)", step, i, it.Index(), it.Val())
		}
	}
	if it := s.At(len(want)); it.Ok() {
		t.Fatalf("step %d: At(Len) is not the end", step)
	}
	// wi, start: the first element ending past pos (the oracle's Find).
	wi, start, p := 0, 0, 0
	find := func(pos int) {
		for wi < len(want) && p+want[wi].n <= pos {
			p += want[wi].n
			wi++
		}
		start = p
		if wi == len(want) {
			start = s.Total()
		}
		if it := s.Find(pos); it.Index() != wi || it.Start() != start {
			t.Fatalf("step %d: Find(%d) = (i %d, start %d), want (i %d, start %d)", step, pos, it.Index(), it.Start(), wi, start)
		}
	}
	find(-1)
	for q := 0; q < s.Total(); { // ascending positions: boundaries and one past
		find(q)
		find(q + 1)
		if wi < len(want) {
			q = max(q+2, start+want[wi].n)
		} else {
			q = s.Total()
		}
	}
	find(s.Total())
	find(s.Total() + 1)
}

// TestSeqMatchesSliceOracle drives random replaces, appends and resets
// against a plain slice. The inserts are sized to split full chunks and
// to add several chunks at once, the deletes to span chunks and to empty
// them, and lengths include zero.
func TestSeqMatchesSliceOracle(t *testing.T) {
	groups := 0
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		var s Seq[int]
		var want []elem
		next := 0
		fresh := func(k int) ([]int, []int, []elem) {
			lens, vals, es := make([]int, k), make([]int, k), make([]elem, k)
			for x := range k {
				next++
				lens[x], vals[x] = rnd.Intn(4), next
				es[x] = elem{lens[x], next}
			}
			return lens, vals, es
		}
		if seed%2 == 0 { // start past two groups of chunks
			lens, vals, es := fresh(2*group*maxChunk + rnd.Intn(maxChunk))
			s.Replace(0, 0, lens, vals)
			want = es
		}
		for step := 0; step < 400; step++ {
			switch op := rnd.Intn(20); {
			case op < 6: // append at the end, as a loader or a layout frontier does
				for range rnd.Intn(3*maxChunk/2) + 1 {
					lens, vals, es := fresh(1)
					s.Append(lens[0], vals[0])
					want = append(want, es...)
				}
			case op < 15: // a small replace anywhere, often within one chunk
				i := rnd.Intn(len(want) + 1)
				j := min(len(want), i+rnd.Intn(4))
				lens, vals, es := fresh(rnd.Intn(4))
				s.Replace(i, j, lens, vals)
				want = append(want[:i:i], append(es, want[j:]...)...)
			case op < 19: // a large replace: deletes spanning chunks, bulk inserts
				i := rnd.Intn(len(want) + 1)
				j := min(len(want), i+rnd.Intn(3*maxChunk))
				lens, vals, es := fresh(rnd.Intn(3 * maxChunk))
				s.Replace(i, j, lens, vals)
				want = append(want[:i:i], append(es, want[j:]...)...)
			default:
				if rnd.Intn(4) == 0 {
					s.Reset()
					want = nil
				}
			}
			check(t, step, &s, want)
			if step%20 == 0 {
				checkLookups(t, step, &s, want)
			}
			groups = max(groups, len(s.gstarts))
		}
	}
	if groups < 3 {
		t.Fatalf("the sequences spanned at most %d groups of chunks", groups)
	}
}

// TestSeqEmptiesChunks removes every element of one middle chunk, then
// of all chunks, and checks no empty chunk survives.
func TestSeqEmptiesChunks(t *testing.T) {
	var s Seq[int]
	var want []elem
	for i := range 3 * maxChunk {
		s.Append(1, i)
		want = append(want, elem{1, i})
	}
	s.Replace(maxChunk, 2*maxChunk, nil, nil)
	want = append(want[:maxChunk:maxChunk], want[2*maxChunk:]...)
	check(t, 0, &s, want)
	if len(s.chunks) != 2 {
		t.Fatalf("%d chunks after emptying the middle one, want 2", len(s.chunks))
	}
	s.Replace(0, s.Len(), nil, nil)
	check(t, 1, &s, nil)
	if len(s.chunks) != 0 {
		t.Fatalf("%d chunks left in an empty sequence", len(s.chunks))
	}
	s.Replace(0, 0, []int{5}, []int{7})
	check(t, 2, &s, []elem{{5, 7}})
}

// TestSeqEditTouchesOneChunk pins the cost model: an in-place edit in a
// long sequence allocates nothing.
func TestSeqEditTouchesOneChunk(t *testing.T) {
	var s Seq[int]
	for i := range 3 * group * maxChunk {
		s.Append(3, i)
	}
	lens, vals := []int{9}, []int{1}
	mid := s.Len() / 2
	if a := testing.AllocsPerRun(100, func() {
		s.Replace(mid, mid+1, lens, vals)
		_ = s.Find(s.Total() / 3)
	}); a != 0 {
		t.Fatalf("an in-chunk replace allocated %v times", a)
	}
}
