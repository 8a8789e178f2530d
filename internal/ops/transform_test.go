package ops

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"atk/internal/text"
)

// The text transform's convergence tests: pairs through XformText, and
// sequences through XformDual over TextOp values, the fold the docserve
// host and client run.

// applyAll replays recs over a fresh document seeded with base.
func applyAll(t *testing.T, base string, seqs ...[]text.EditRecord) *text.Data {
	t.Helper()
	d := text.NewString(base)
	for _, recs := range seqs {
		for _, rec := range recs {
			if err := d.ApplyRecord(rec); err != nil {
				t.Fatalf("applying %s to %q: %v", text.EncodeRecord(rec), d.String(), err)
			}
		}
	}
	return d
}

func ins(pos int, s string) text.EditRecord {
	return text.EditRecord{Kind: text.RecInsert, Pos: pos, Text: s}
}

func del(pos, n int) text.EditRecord {
	return text.EditRecord{Kind: text.RecDelete, Pos: pos, N: n}
}

func sty(runs ...text.Run) text.EditRecord {
	return text.EditRecord{Kind: text.RecStyle, Runs: runs}
}

// textOps wraps text records as ops.
func textOps(recs []text.EditRecord) []Op {
	out := make([]Op, len(recs))
	for i, r := range recs {
		out[i] = TextOp(r)
	}
	return out
}

// textRecs unwraps the ops XformDual returned for text inputs.
func textRecs(t *testing.T, ops []Op) []text.EditRecord {
	t.Helper()
	out := make([]text.EditRecord, len(ops))
	for i, op := range ops {
		if op.Kind != KindText {
			t.Fatalf("text transform produced a %s op", op.Kind)
		}
		out[i] = op.Text
	}
	return out
}

// sameDoc asserts two documents are byte-identical, styles included.
func sameDoc(t *testing.T, label string, a, b *text.Data) {
	t.Helper()
	if a.String() != b.String() {
		t.Fatalf("%s: text diverged:\n  a=%q\n  b=%q", label, a.String(), b.String())
	}
	ra, rb := a.Runs(), b.Runs()
	if len(ra) != len(rb) {
		t.Fatalf("%s: runs diverged: %v vs %v", label, ra, rb)
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("%s: runs diverged at %d: %v vs %v", label, i, ra, rb)
		}
	}
}

// checkTP1 asserts the convergence property for one pair: with b the
// server-later op, base+a+xform(b,a,later) == base+b+xform(a,b,earlier).
// baseRuns, when present, pre-style the shared base state — the hard cases
// are ops racing over text that already carries runs.
func checkTP1(t *testing.T, label, base string, a, b text.EditRecord, baseRuns ...text.Run) {
	t.Helper()
	pre := []text.EditRecord{}
	if len(baseRuns) > 0 {
		pre = append(pre, sty(baseRuns...))
	}
	d1 := applyAll(t, base, pre, []text.EditRecord{a}, XformText(b, a, true))
	d2 := applyAll(t, base, pre, []text.EditRecord{b}, XformText(a, b, false))
	sameDoc(t, label, d1, d2)
}

// checkTP1Text asserts text convergence only. Over pre-styled state the
// run lists may legitimately differ after an insert/delete race (run
// growth is state-dependent; see the transform package comment) — the
// host's style checkpoint heals that, which the end-to-end serve tests
// verify. The text itself must converge unconditionally.
func checkTP1Text(t *testing.T, label, base string, a, b text.EditRecord, baseRuns ...text.Run) {
	t.Helper()
	pre := []text.EditRecord{}
	if len(baseRuns) > 0 {
		pre = append(pre, sty(baseRuns...))
	}
	d1 := applyAll(t, base, pre, []text.EditRecord{a}, XformText(b, a, true))
	d2 := applyAll(t, base, pre, []text.EditRecord{b}, XformText(a, b, false))
	if d1.String() != d2.String() {
		t.Fatalf("%s: text diverged:\n  a=%q\n  b=%q", label, d1.String(), d2.String())
	}
}

func TestXformTableCases(t *testing.T) {
	cases := []struct {
		name string
		base string
		a, b text.EditRecord // a committed first, b second
	}{
		{"insert before insert", "hello", ins(1, "XX"), ins(3, "YY")},
		{"insert after insert", "hello", ins(4, "XX"), ins(1, "YY")},
		{"insert tie same pos", "hello", ins(2, "AA"), ins(2, "BB")},
		{"insert tie at start", "hello", ins(0, "AA"), ins(0, "BB")},
		{"insert at end tie", "hi", ins(2, "AA"), ins(2, "BB")},
		{"delete before insert", "hello world", del(0, 3), ins(8, "X")},
		{"delete after insert", "hello world", del(8, 2), ins(2, "X")},
		{"insert inside deleted range", "hello world", del(2, 6), ins(4, "XY")},
		{"insert at delete start", "hello", del(1, 3), ins(1, "X")},
		{"insert at delete end", "hello", del(1, 3), ins(4, "X")},
		{"delete inside insert shift", "hello", ins(2, "abc"), del(3, 2)},
		{"disjoint deletes", "abcdefgh", del(0, 2), del(5, 2)},
		{"overlapping deletes", "abcdefgh", del(2, 4), del(4, 3)},
		{"nested delete", "abcdefgh", del(1, 6), del(3, 2)},
		{"identical deletes", "abcdefgh", del(2, 3), del(2, 3)},
		{"style vs style lww", "abcdef", sty(text.Run{Start: 0, End: 3, Style: "bold"}), sty(text.Run{Start: 2, End: 5, Style: "italic"})},
		{"style vs insert", "abcdef", ins(2, "XY"), sty(text.Run{Start: 1, End: 4, Style: "bold"})},
		{"style vs delete", "abcdef", del(1, 3), sty(text.Run{Start: 0, End: 5, Style: "bold"})},
		{"style swallowed by delete", "abcdef", del(1, 3), sty(text.Run{Start: 2, End: 3, Style: "bold"})},
		{"unicode insert widths", "héllo", ins(1, "ωω"), ins(3, "x")},
	}
	for _, c := range cases {
		checkTP1(t, c.name, c.base, c.a, c.b)
	}
}

func TestXformDeleteSwallowsInsideInsert(t *testing.T) {
	// An insert strictly inside a concurrently deleted range goes with the
	// range — deterministically, in both orders (the convergent rule; see
	// the transform's package comment for why splitting cannot converge on
	// style runs).
	base := "hello world"
	a, b := ins(7, "NEW"), del(3, 6) // delete "lo wor", insert inside it
	d1 := applyAll(t, base, []text.EditRecord{a}, XformText(b, a, true))
	if strings.Contains(d1.String(), "NEW") {
		t.Fatalf("insert inside a concurrent delete should be swallowed: %q", d1.String())
	}
	if d1.String() != "helld" {
		t.Fatalf("got %q, want %q", d1.String(), "helld")
	}
	checkTP1(t, "swallow", base, a, b)
	// Inserts at the range boundaries survive on both sides.
	checkTP1(t, "boundary start", base, ins(3, "S"), del(3, 6))
	checkTP1(t, "boundary end", base, ins(9, "E"), del(3, 6))
}

func TestXformStyleLastWriterWins(t *testing.T) {
	// The server-later style record's run list must be the final one in
	// both orders; the earlier record vanishes when rewritten past it.
	later := sty(text.Run{Start: 1, End: 2, Style: "italic"})
	earlier := sty(text.Run{Start: 0, End: 3, Style: "bold"})
	if got := XformText(earlier, later, false); got != nil {
		t.Fatalf("earlier style record should be superseded, got %v", got)
	}
	if got := XformText(later, earlier, true); len(got) != 1 || got[0].Runs[0].Style != "italic" {
		t.Fatalf("later style record should pass unchanged, got %v", got)
	}
}

// randRec produces a random record valid in a document of n runes. With
// styles false it only produces inserts and deletes.
func randRec(rng *rand.Rand, n int, styles bool) text.EditRecord {
	alphabet := []rune("abXY9ω€\n")
	kinds := 3
	if !styles {
		kinds = 2
	}
	switch k := rng.Intn(kinds); {
	case k == 0 || n == 0: // insert
		m := 1 + rng.Intn(3)
		var b strings.Builder
		for i := 0; i < m; i++ {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return ins(rng.Intn(n+1), b.String())
	case k == 1: // delete
		pos := rng.Intn(n)
		return del(pos, 1+rng.Intn(min(n-pos, 3)))
	default: // style: random ordered non-overlapping runs
		return sty(randRuns(rng, n)...)
	}
}

// randRuns produces a random valid (ordered, non-overlapping) run list
// for a document of n runes; possibly empty.
func randRuns(rng *rand.Rand, n int) []text.Run {
	var runs []text.Run
	names := []string{"bold", "italic", "bigger"}
	at := 0
	for at < n && len(runs) < 3 && rng.Intn(2) == 0 {
		start := at + rng.Intn(n-at)
		end := start + 1 + rng.Intn(n-start)
		runs = append(runs, text.Run{Start: start, End: end, Style: names[rng.Intn(len(names))]})
		at = end
	}
	return runs
}

func randBase(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(rune('a' + rng.Intn(26)))
	}
	return b.String()
}

func TestQuickXformPairConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		base := randBase(rng, rng.Intn(12))
		n := len([]rune(base))
		a, b := randRec(rng, n, true), randRec(rng, n, true)
		label := fmt.Sprintf("iter %d: a=%s b=%s base=%q", iter, text.EncodeRecord(a), text.EncodeRecord(b), base)
		// Unstyled base: full convergence, runs included (any runs in play
		// travel inside the records being transformed).
		checkTP1(t, label, base, a, b)
		// Pre-styled base: text must still converge unconditionally. Runs
		// may differ here (state-dependent growth) until the host's style
		// checkpoint pins them — covered by the end-to-end serve tests.
		if n > 0 {
			runs := randRuns(rng, n)
			checkTP1Text(t, label+fmt.Sprintf(" runs=%v", runs), base, a, b, runs...)
		}
	}
}

// randSeq produces a sequence of records, each valid after the previous
// ones (sequential within itself), by simulating on a scratch document.
func randSeq(t *testing.T, rng *rand.Rand, base string, k int, styles bool) []text.EditRecord {
	t.Helper()
	d := text.NewString(base)
	var recs []text.EditRecord
	for i := 0; i < k; i++ {
		rec := randRec(rng, len([]rune(d.String())), styles)
		if err := d.ApplyRecord(rec); err != nil {
			t.Fatalf("randSeq: %v", err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// Style-free sequences must converge completely under the dual transform.
func TestQuickXformDualSequenceConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 1500; iter++ {
		base := randBase(rng, rng.Intn(10))
		xs := randSeq(t, rng, base, 1+rng.Intn(3), false)
		ys := randSeq(t, rng, base, 1+rng.Intn(3), false)
		xo, yo := XformDual(textOps(xs), textOps(ys), true) // xs is server-later
		xs2, ys2 := textRecs(t, xo), textRecs(t, yo)
		d1 := applyAll(t, base, ys, xs2) // server order: ys first
		d2 := applyAll(t, base, xs, ys2) // client order: xs first
		sameDoc(t, fmt.Sprintf("iter %d base=%q xs=%v ys=%v xs2=%v ys2=%v", iter, base, enc(xs), enc(ys), enc(xs2), enc(ys2)), d1, d2)
	}
}

// Styled sequences must converge on text unconditionally; run lists may
// differ until the host's style checkpoint (end-to-end tests) pins them.
func TestQuickXformDualSequenceTextConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 1500; iter++ {
		base := randBase(rng, rng.Intn(10))
		xs := randSeq(t, rng, base, 1+rng.Intn(3), true)
		ys := randSeq(t, rng, base, 1+rng.Intn(3), true)
		xo, yo := XformDual(textOps(xs), textOps(ys), true)
		d1 := applyAll(t, base, ys, textRecs(t, xo))
		d2 := applyAll(t, base, xs, textRecs(t, yo))
		if d1.String() != d2.String() {
			t.Fatalf("iter %d base=%q xs=%v ys=%v: text diverged:\n  %q\n  %q",
				iter, base, enc(xs), enc(ys), d1.String(), d2.String())
		}
	}
}

// TestXformDualNoAliasing pins the capacity-clipping: appending to a
// returned slice must never scribble into the caller's arrays.
func TestXformDualNoAliasing(t *testing.T) {
	xs := make([]Op, 1, 8)
	xs[0] = TextOp(ins(0, "a"))
	xs2, _ := XformDual(xs, nil, true)
	_ = append(xs2, TextOp(ins(9, "scribble")))
	if xs[:cap(xs)][1:2][0].Text.Text == "scribble" {
		t.Fatal("XformDual returned an aliasing slice")
	}
}

func enc(recs []text.EditRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = text.EncodeRecord(r)
	}
	return out
}
