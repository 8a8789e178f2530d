// Package chunked provides Seq, an ordered sequence of elements that each
// cover a length of one position space: the pieces of a text buffer, its
// hard lines, a text view's display lines. Positions are never stored per
// element. Elements sit in chunks of at most maxChunk, and only chunks
// carry offsets: the position and index of their first element, relative
// to their group of chunks, and each group's absolute ones. So an edit
// rewrites one chunk and shifts the offsets of the later chunks in its
// group and of the later groups, and a lookup is a binary search over
// groups and over chunks followed by a scan inside one chunk.
package chunked

import "slices"

const (
	// maxChunk bounds the elements of one chunk: it is the longest scan
	// a lookup makes. Appending fills a chunk completely before the next
	// one starts, so a sequence built front to back carries no slack; an
	// insert into a full chunk splits it in two.
	maxChunk = 64
	// group is the number of consecutive chunks whose offsets are kept
	// relative to a shared group offset.
	group = 64
)

// Seq is a sequence of elements, each a length and a value. Element i
// starts at the sum of the lengths before it. The zero value is empty.
// A Seq is not safe for concurrent mutation; concurrent readers are.
type Seq[T any] struct {
	chunks  []chunk[T]
	starts  []int // starts[c]: position of chunk c's first element, from its group's
	firsts  []int // firsts[c]: index of chunk c's first element, from its group's
	gstarts []int // gstarts[g]: position of the first element of chunks [g*group, (g+1)*group)
	gfirsts []int // gfirsts[g]: index of that element
	n       int   // elements
	total   int   // sum of lengths
}

// chunk holds consecutive elements; it is never empty.
type chunk[T any] struct {
	lens  []int
	vals  []T
	total int // sum of lens
}

// Len returns the number of elements.
func (s *Seq[T]) Len() int { return s.n }

// Total returns the sum of the element lengths: the position just past
// the last element.
func (s *Seq[T]) Total() int { return s.total }

// Reset empties the sequence. It keeps the chunk arrays for Append to
// refill, as a relayout from scratch does.
func (s *Seq[T]) Reset() {
	s.chunks, s.starts, s.firsts = s.chunks[:0], s.starts[:0], s.firsts[:0]
	s.gstarts, s.gfirsts = s.gstarts[:0], s.gfirsts[:0]
	s.n, s.total = 0, 0
}

// Append adds one element at the end.
func (s *Seq[T]) Append(n int, v T) {
	c := len(s.chunks) - 1
	if c < 0 || len(s.chunks[c].lens) >= maxChunk {
		c++
		if c < cap(s.chunks) { // refill a chunk a Reset left behind
			s.chunks = s.chunks[:c+1]
		} else {
			s.chunks = append(s.chunks, chunk[T]{})
		}
		ch := &s.chunks[c]
		ch.lens, ch.vals, ch.total = ch.lens[:0], ch.vals[:0], 0
		if c > 0 && cap(ch.lens) < maxChunk { // past one chunk, allocate whole chunks
			ch.lens, ch.vals = make([]int, 0, maxChunk), make([]T, 0, maxChunk)
		}
		if c%group == 0 {
			s.gstarts = append(s.gstarts, s.total)
			s.gfirsts = append(s.gfirsts, s.n)
		}
		g := len(s.gstarts) - 1
		s.starts = append(s.starts, s.total-s.gstarts[g])
		s.firsts = append(s.firsts, s.n-s.gfirsts[g])
	}
	ch := &s.chunks[c]
	ch.lens = append(ch.lens, n)
	ch.vals = append(ch.vals, v)
	ch.total += n
	s.n++
	s.total += n
}

// Replace replaces elements [i, j) with the elements whose lengths and
// values are lens and vals, which must be of equal length. Elements after
// j keep their values and lengths; their positions move by the change in
// total length.
func (s *Seq[T]) Replace(i, j int, lens []int, vals []T) {
	if len(s.chunks) == 0 {
		for k := range lens {
			s.Append(lens[k], vals[k])
		}
		return
	}
	// The edit touches chunks ca..cb: it starts at offset ka of ca and
	// ends before offset kb of cb.
	ca, ka := s.chunkOf(i)
	if ca == len(s.chunks) {
		ca--
		ka = len(s.chunks[ca].lens)
	}
	cb, kb := ca, ka
	if j > i {
		cb, kb = s.chunkOf(j - 1)
		kb++
	}
	dn := len(lens) - (j - i)
	dt := 0
	for _, l := range lens {
		dt += l
	}
	for c := ca; c <= cb; c++ {
		lo, hi := 0, len(s.chunks[c].lens)
		if c == ca {
			lo = ka
		}
		if c == cb {
			hi = kb
		}
		for _, l := range s.chunks[c].lens[lo:hi] {
			dt -= l
		}
	}
	s.n += dn
	s.total += dt
	if ch := &s.chunks[ca]; ca == cb && len(ch.lens)+dn <= maxChunk && len(ch.lens)+dn > 0 {
		ch.lens = slices.Replace(ch.lens, ka, kb, lens...)
		ch.vals = slices.Replace(ch.vals, ka, kb, vals...)
		ch.total += dt
		g := ca / group
		end := min((g+1)*group, len(s.chunks))
		shift(s.starts[ca+1:end], dt)
		shift(s.firsts[ca+1:end], dn)
		shift(s.gstarts[g+1:], dt)
		shift(s.gfirsts[g+1:], dn)
		return
	}
	s.rechunk(ca, ka, cb, kb, lens, vals)
}

// rechunk replaces chunks ca..cb with new chunks holding the kept
// elements before ka and from kb, with lens and vals between them, and
// recomputes the offsets of every chunk from ca's group on.
func (s *Seq[T]) rechunk(ca, ka, cb, kb int, lens []int, vals []T) {
	a, b := s.chunks[ca], s.chunks[cb]
	// Spread the elements evenly over as few chunks as hold them, leaving
	// room on both sides of an insert; an edit that ends the sequence fills
	// whole chunks instead, as Append does, so a sequence built by bulk
	// appends (a streamed load) stays dense. Each chunk gets its own
	// exactly sized arrays.
	n := ka + len(lens) + len(b.lens) - kb
	m := (n + maxChunk - 1) / maxChunk
	bound := func(c int) int { return c * n / m }
	if cb == len(s.chunks)-1 && kb == len(b.lens) {
		bound = func(c int) int { return min(c*maxChunk, n) }
	}
	repl := make([]chunk[T], m)
	for c := range m {
		lo, hi := bound(c), bound(c+1)
		ch := &repl[c]
		ch.lens = appendRange(make([]int, 0, hi-lo), lo, hi, a.lens[:ka], lens, b.lens[kb:])
		ch.vals = appendRange(make([]T, 0, hi-lo), lo, hi, a.vals[:ka], vals, b.vals[kb:])
		for _, l := range ch.lens {
			ch.total += l
		}
	}
	if need := len(s.chunks) - (cb + 1 - ca) + m; need > cap(s.chunks) {
		// Grow with headroom: a sequence built in bulk then splits its
		// chunks one at a time.
		s.chunks = slices.Grow(s.chunks, need+need/8-len(s.chunks))
	}
	s.chunks = slices.Replace(s.chunks, ca, cb+1, repl...)
	g := ca / group
	pos, idx := s.gstarts[g], s.gfirsts[g]
	s.starts, s.firsts = s.starts[:g*group], s.firsts[:g*group]
	s.gstarts, s.gfirsts = s.gstarts[:g], s.gfirsts[:g]
	for c := g * group; c < len(s.chunks); c++ {
		if c%group == 0 {
			s.gstarts = append(s.gstarts, pos)
			s.gfirsts = append(s.gfirsts, idx)
		}
		s.starts = append(s.starts, pos-s.gstarts[c/group])
		s.firsts = append(s.firsts, idx-s.gfirsts[c/group])
		pos += s.chunks[c].total
		idx += len(s.chunks[c].lens)
	}
}

// appendRange appends elements [lo, hi) of the concatenation of parts
// to dst.
func appendRange[E any](dst []E, lo, hi int, parts ...[]E) []E {
	for _, p := range parts {
		if lo < len(p) && hi > 0 {
			dst = append(dst, p[max(lo, 0):min(hi, len(p))]...)
		}
		lo, hi = lo-len(p), hi-len(p)
	}
	return dst
}

// shift adds d to every key.
func shift(keys []int, d int) {
	if d != 0 {
		for c := range keys {
			keys[c] += d
		}
	}
}

// locate returns the last chunk whose key (a first element's position or
// index, per the two key levels) is at most x, or 0 when none is, and
// that chunk's absolute key. The sequence is not empty.
func (s *Seq[T]) locate(gkeys, keys []int, x int) (c, key int) {
	g := lastAtMost(gkeys, x)
	lo := g * group
	c = lo + lastAtMost(keys[lo:min(lo+group, len(keys))], x-gkeys[g])
	return c, gkeys[g] + keys[c]
}

// lastAtMost returns the last index whose key is at most x, or 0 when
// none is (keys is sorted and non-empty).
func lastAtMost(keys []int, x int) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] <= x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return max(lo-1, 0)
}

// chunkOf returns the chunk holding element i and i's offset in it, or
// (len(chunks), 0) when i is past the last element.
func (s *Seq[T]) chunkOf(i int) (c, k int) {
	if i >= s.n {
		return len(s.chunks), 0
	}
	c, first := s.locate(s.gfirsts, s.firsts, i)
	return c, i - first
}

// At returns an iterator at element i; past the end when i >= Len.
func (s *Seq[T]) At(i int) Iter[T] {
	if i >= s.n {
		return s.end()
	}
	c, first := s.locate(s.gfirsts, s.firsts, i)
	p := s.gstarts[c/group] + s.starts[c]
	for _, l := range s.chunks[c].lens[:i-first] {
		p += l
	}
	return Iter[T]{s: s, c: c, k: i - first, i: i, start: p}
}

// Find returns an iterator at the first element that ends past pos: the
// element holding pos, with zero-length elements at pos skipped. It is
// past the end when pos >= Total.
func (s *Seq[T]) Find(pos int) Iter[T] {
	if pos >= s.total || len(s.chunks) == 0 {
		return s.end()
	}
	c, p := s.locate(s.gstarts, s.starts, pos)
	first := s.gfirsts[c/group] + s.firsts[c]
	for k, l := range s.chunks[c].lens {
		if p+l > pos {
			return Iter[T]{s: s, c: c, k: k, i: first + k, start: p}
		}
		p += l
	}
	// Chunk c ends at or before pos, so chunk c+1 starts past it.
	return Iter[T]{s: s, c: c + 1, i: first + len(s.chunks[c].lens), start: p}
}

func (s *Seq[T]) end() Iter[T] {
	return Iter[T]{s: s, c: len(s.chunks), i: s.n, start: s.total}
}

// Iter is a position in a Seq: an element, or the end. Any change to the
// Seq invalidates it.
type Iter[T any] struct {
	s     *Seq[T]
	c, k  int // chunk, and offset within it
	i     int // element index
	start int // element position
}

// Ok reports whether the iterator is at an element rather than the end.
func (it Iter[T]) Ok() bool { return it.i < it.s.n }

// Index returns the element's index (Len at the end).
func (it Iter[T]) Index() int { return it.i }

// Start returns the element's position (Total at the end).
func (it Iter[T]) Start() int { return it.start }

// Len returns the element's length.
func (it Iter[T]) Len() int { return it.s.chunks[it.c].lens[it.k] }

// End returns the position just past the element.
func (it Iter[T]) End() int { return it.start + it.Len() }

// Val returns the element's value.
func (it Iter[T]) Val() T { return it.s.chunks[it.c].vals[it.k] }

// Next moves to the following element, or the end. It needs Ok.
func (it *Iter[T]) Next() {
	ch := &it.s.chunks[it.c]
	it.start += ch.lens[it.k]
	it.i++
	if it.k++; it.k == len(ch.lens) {
		it.c, it.k = it.c+1, 0
	}
}

// Prev moves to the preceding element. It needs Index > 0.
func (it *Iter[T]) Prev() {
	if it.k == 0 {
		it.c--
		it.k = len(it.s.chunks[it.c].lens)
	}
	it.k--
	it.i--
	it.start -= it.s.chunks[it.c].lens[it.k]
}
