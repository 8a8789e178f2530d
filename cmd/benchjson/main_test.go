package main

import (
	"math"
	"testing"
)

// TestParseBenchLine pins the `go test -bench` line parser, including
// custom b.ReportMetric units landing in Extra.
func TestParseBenchLine(t *testing.T) {
	e, ok := parseBench("BenchmarkDocServeFanout-8   39786   75499 ns/op   13245 commits/s   423848 deliveries/s   2826 B/op   42 allocs/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if e.Name != "DocServeFanout-8" || e.NsPerOp != 75499 || e.BytesPerOp != 2826 || e.AllocsPerOp != 42 {
		t.Fatalf("parsed %+v", e)
	}
	if e.Extra["commits/s"] != 13245 || e.Extra["deliveries/s"] != 423848 {
		t.Fatalf("extra: %v", e.Extra)
	}
	if _, ok := parseBench("ok  	atk/internal/docserve	1.2s"); ok {
		t.Fatal("non-benchmark line accepted")
	}
	if _, ok := parseBench("BenchmarkBroken notanumber 5 ns/op"); ok {
		t.Fatal("bad iteration count accepted")
	}
}

// TestCollectorMergesReruns pins the -count=N merge: repeated names
// collapse to one entry holding the mean, the rerun count, and the
// cross-rerun sample stddev for ns/op and each custom metric.
func TestCollectorMergesReruns(t *testing.T) {
	col := newCollector()
	lines := []string{
		"BenchmarkFanout-8 100 100 ns/op 1000 commits/s 10 B/op 4 allocs/op",
		"BenchmarkOther-8 10 50 ns/op",
		"BenchmarkFanout-8 100 110 ns/op 1200 commits/s 10 B/op 4 allocs/op",
		"BenchmarkFanout-8 100 120 ns/op 1400 commits/s 16 B/op 4 allocs/op",
	}
	for _, l := range lines {
		e, ok := parseBench(l)
		if !ok {
			t.Fatalf("rejected %q", l)
		}
		col.add(e)
	}
	es := col.finalize()
	if len(es) != 2 {
		t.Fatalf("finalize returned %d entries, want 2", len(es))
	}
	// First-seen order is preserved.
	if es[0].Name != "Fanout-8" || es[1].Name != "Other-8" {
		t.Fatalf("order: %s, %s", es[0].Name, es[1].Name)
	}
	m := es[0]
	if m.Reruns != 3 {
		t.Fatalf("reruns = %d, want 3", m.Reruns)
	}
	if m.NsPerOp != 110 {
		t.Fatalf("mean ns/op = %v, want 110", m.NsPerOp)
	}
	if math.Abs(m.NsPerOpStddev-10) > 1e-9 {
		t.Fatalf("ns/op stddev = %v, want 10", m.NsPerOpStddev)
	}
	if m.Extra["commits/s"] != 1200 {
		t.Fatalf("mean commits/s = %v, want 1200", m.Extra["commits/s"])
	}
	if sd := m.ExtraStddev["commits/s"]; math.Abs(sd-200) > 1e-9 {
		t.Fatalf("commits/s stddev = %v, want 200", sd)
	}
	if m.BytesPerOp != 12 || m.AllocsPerOp != 4 {
		t.Fatalf("merged B/op=%d allocs/op=%d", m.BytesPerOp, m.AllocsPerOp)
	}
	// Single-run entries stay untouched: no rerun markers.
	if es[1].Reruns != 0 || es[1].NsPerOpStddev != 0 {
		t.Fatalf("single-run entry grew rerun fields: %+v", es[1])
	}
}

// TestSpeedupsFromMergedEntries pins that speedup derivation works over
// merged entries (the ratio of the two means).
func TestSpeedupsFromMergedEntries(t *testing.T) {
	col := newCollector()
	for _, l := range []string{
		"BenchmarkE9/LineStartScanBaseline-8 10 400 ns/op",
		"BenchmarkE9/LineStartIndexed-8 10 10 ns/op",
		"BenchmarkE9/LineStartScanBaseline-8 10 480 ns/op",
		"BenchmarkE9/LineStartIndexed-8 10 12 ns/op",
	} {
		e, ok := parseBench(l)
		if !ok {
			t.Fatalf("rejected %q", l)
		}
		col.add(e)
	}
	sp := deriveSpeedups(col.finalize())
	if got := sp["line_start_end_of_doc"]; got != 40 {
		t.Fatalf("speedup = %v, want 40 (440/11)", got)
	}
}

// TestSizeRatioDerivation pins the direction of the size ratios: the
// large document's ns/op over the small one's.
func TestSizeRatioDerivation(t *testing.T) {
	col := newCollector()
	for _, l := range []string{
		"BenchmarkE9TextIndexing/EditData2k-8 1000 1500 ns/op",
		"BenchmarkE9TextIndexing/EditData200k-8 1000 1800 ns/op",
		"BenchmarkE9TextIndexing/EditView2k-8 1000 5000 ns/op",
		"BenchmarkE9TextIndexing/EditView200k-8 1000 15000 ns/op",
	} {
		e, ok := parseBench(l)
		if !ok {
			t.Fatalf("rejected %q", l)
		}
		col.add(e)
	}
	sp := deriveSpeedups(col.finalize())
	if got := sp["text_edit_200k_over_2k"]; got != 1.2 {
		t.Fatalf("text_edit_200k_over_2k = %v, want 1.2 (1800/1500)", got)
	}
	if got := sp["textview_edit_200k_over_2k"]; got != 3 {
		t.Fatalf("textview_edit_200k_over_2k = %v, want 3 (15000/5000)", got)
	}
}

// TestExtraRatioDerivation pins the custom-metric ratio path: the
// open-RSS ratio divides the pair's heap-mb metrics, not their ns/op.
func TestExtraRatioDerivation(t *testing.T) {
	col := newCollector()
	for _, l := range []string{
		"BenchmarkStreamPipeline/OpenLargeDocEager-8 1 2000000 ns/op 500 heap-mb",
		"BenchmarkStreamPipeline/OpenLargeDocStreamed-8 1 1000 ns/op 2.5 heap-mb",
	} {
		e, ok := parseBench(l)
		if !ok {
			t.Fatalf("rejected %q", l)
		}
		col.add(e)
	}
	sp := deriveSpeedups(col.finalize())
	if got := sp["open_large_doc"]; got != 2000 {
		t.Fatalf("open_large_doc speedup = %v, want 2000", got)
	}
	if got := sp["open_rss_ratio"]; got != 200 {
		t.Fatalf("open_rss_ratio = %v, want 200 (500/2.5)", got)
	}
}

// TestRepaintSpeedupAndFilterList pins the repaint ratio, keyed by the
// whole sub-benchmark name, and the comma-separated -filter.
func TestRepaintSpeedupAndFilterList(t *testing.T) {
	col := newCollector()
	for _, l := range []string{
		"BenchmarkE9TextIndexing/EditData2k-2 1000 1200 ns/op",
		"BenchmarkIncrementalEdit/damage-2 1000 40000 ns/op 7928 pixels/flush",
		"BenchmarkIncrementalEdit/full-2 1000 500000 ns/op 219335 pixels/flush",
		"BenchmarkOther/full-2 1000 1 ns/op",
	} {
		e, ok := parseBench(l)
		if !ok {
			t.Fatalf("rejected %q", l)
		}
		if matches(e.Name, "E9TextIndexing,IncrementalEdit") {
			col.add(e)
		}
	}
	es := col.finalize()
	if len(es) != 3 {
		t.Fatalf("filter kept %d entries, want 3", len(es))
	}
	if sp := deriveSpeedups(es); sp["repaint_damage_speedup"] != 12.5 {
		t.Fatalf("repaint_damage_speedup = %v, want 12.5", sp["repaint_damage_speedup"])
	}
	if !matches("Anything", "") {
		t.Fatal("an empty filter must match everything")
	}
}
