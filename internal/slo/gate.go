package slo

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// GateResult is one gate condition's verdict across reruns.
type GateResult struct {
	Gate      string  `json:"gate"`
	Metric    string  `json:"metric"`
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
	N         int     `json:"n"`
	Mean      float64 `json:"mean"`
	Stddev    float64 `json:"stddev"`
	Hard      bool    `json:"hard"`
	Pass      bool    `json:"pass"`
	Detail    string  `json:"detail,omitempty"`
}

func (g GateResult) String() string {
	verdict := "PASS"
	if !g.Pass {
		verdict = "FAIL"
	}
	kind := "soft"
	if g.Hard {
		kind = "hard"
	}
	s := fmt.Sprintf("%-4s %-44s %s %s %g (mean %.4g, stddev %.3g, n=%d, %s)",
		verdict, g.Gate, g.Metric, g.Op, g.Threshold, g.Mean, g.Stddev, g.N, kind)
	if g.Detail != "" {
		s += " — " + g.Detail
	}
	return s
}

// meanStddev returns the mean and sample standard deviation of vs.
func meanStddev(vs []float64) (mean, stddev float64) {
	if len(vs) == 0 {
		return math.NaN(), 0
	}
	for _, v := range vs {
		mean += v
	}
	mean /= float64(len(vs))
	if len(vs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range vs {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(vs)-1))
}

// varianceGate applies the rerun-aware gate rule to one assertion's
// values across reruns.
//
// Hard assertions (correctness: convergence, liveness, fault-armed
// proof) fail if ANY rerun violates them — noise is no excuse for a
// diverged replica.
//
// Soft assertions (latency/throughput SLOs) fail only when the mean
// violates the threshold AND the regression clears the cross-rerun
// noise: with fewer than 3 reruns there is no variance estimate, so a
// violated mean fails outright; with 3+ reruns the gate fails only when
// |mean − threshold| exceeds the sample stddev. A regression smaller
// than run-to-run noise is not a detectable regression.
func varianceGate(a Assertion, vs []float64) GateResult {
	mean, stddev := meanStddev(vs)
	g := GateResult{
		Gate:      a.Name,
		Metric:    a.Metric,
		Op:        a.Op,
		Threshold: a.Value,
		N:         len(vs),
		Mean:      mean,
		Stddev:    stddev,
		Hard:      a.Hard,
	}
	if len(vs) == 0 {
		g.Pass = false
		g.Detail = "no rerun values"
		return g
	}
	violations := 0
	for _, v := range vs {
		if a.violated(v) {
			violations++
		}
	}
	if a.Hard {
		g.Pass = violations == 0
		if !g.Pass {
			g.Detail = fmt.Sprintf("%d/%d reruns violated a hard assertion", violations, len(vs))
		}
		return g
	}
	if !a.violated(mean) {
		g.Pass = true
		return g
	}
	if len(vs) < 3 {
		g.Pass = false
		g.Detail = "mean violates threshold; <3 reruns, no variance allowance"
		return g
	}
	if math.Abs(mean-a.Value) > stddev {
		g.Pass = false
		g.Detail = "regression exceeds cross-rerun noise"
		return g
	}
	g.Pass = true
	g.Detail = "mean violates threshold but within cross-rerun noise"
	return g
}

// LoadSummaries reads every run's summary.json under dir, keyed by
// scenario name in rerun order.
func LoadSummaries(dir string) (map[string][]*Summary, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*", "run*", "summary.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]*Summary{}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s Summary
		if err := json.Unmarshal(blob, &s); err != nil {
			return nil, fmt.Errorf("slo: %s: %w", p, err)
		}
		out[s.Scenario] = append(out[s.Scenario], &s)
	}
	return out, nil
}

// EvaluateScenarioGates applies the variance rule to every assertion of
// every scenario's rerun set. The assertion set is taken from the first
// rerun; values come from each rerun's recorded result for that metric.
func EvaluateScenarioGates(summaries map[string][]*Summary) []GateResult {
	names := make([]string, 0, len(summaries))
	for name := range summaries {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []GateResult
	for _, name := range names {
		runs := summaries[name]
		if len(runs) == 0 {
			continue
		}
		for _, ar := range runs[0].Assertions {
			var vs []float64
			for _, r := range runs {
				if v, ok := r.Metrics[ar.Metric]; ok {
					vs = append(vs, v)
				}
			}
			g := varianceGate(ar.Assertion, vs)
			g.Gate = name + "/" + ar.Name
			out = append(out, g)
		}
	}
	return out
}

// --- benchmark gates -------------------------------------------------

// BenchEntry mirrors one cmd/benchjson benchmark record.
type BenchEntry struct {
	Name          string             `json:"name"`
	Iterations    int64              `json:"iterations"`
	NsPerOp       float64            `json:"ns_per_op"`
	MBPerSec      float64            `json:"mb_per_sec,omitempty"`
	BytesPerOp    int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp   int64              `json:"allocs_per_op,omitempty"`
	Extra         map[string]float64 `json:"extra,omitempty"`
	Reruns        int                `json:"reruns,omitempty"`
	NsPerOpStddev float64            `json:"ns_per_op_stddev,omitempty"`
	ExtraStddev   map[string]float64 `json:"extra_stddev,omitempty"`
}

// BenchReport mirrors a cmd/benchjson output file.
type BenchReport struct {
	Command    string             `json:"command"`
	Benchmarks []BenchEntry       `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
}

// LoadBenchReport parses one BENCH_*.json file.
func LoadBenchReport(path string) (*BenchReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("slo: %s: %w", path, err)
	}
	return &r, nil
}

// BenchGate holds one committed benchmark number to a floor or ceiling.
type BenchGate struct {
	// Name labels the gate in reports.
	Name string `json:"name"`
	// Bench selects the benchmark by name substring ("" for speedup
	// gates, which look in the report's speedups map instead).
	Bench string `json:"bench,omitempty"`
	// Metric is ns_per_op, bytes_per_op, allocs_per_op, mb_per_sec,
	// extra:<unit> (e.g. extra:commits/s), or speedup:<key>.
	Metric    string  `json:"metric"`
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
}

// DefaultBenchGates is the release floor for the committed BENCH_*.json
// numbers: thresholds sit far enough from the recorded values that only
// an order-of-magnitude regression (or a vanished metric) trips them,
// except the size ratios, which hold a keystroke's cost flat in
// document size, the save's allocation bound, which holds a save to a
// fixed amount of memory whatever the document's size, the save's flush
// count, and the join's allocation bound, which holds a join to a few
// copies of the document.
func DefaultBenchGates() []BenchGate {
	return []BenchGate{
		{Name: "fanout_allocs", Bench: "DocServeFanout", Metric: "allocs_per_op", Op: "<=", Threshold: 128},
		{Name: "fanout_deliveries", Bench: "DocServeFanout", Metric: "extra:deliveries/s", Op: ">=", Threshold: 100000},
		{Name: "fanout_p99_lag", Bench: "DocServeFanout", Metric: "extra:p99-lag-ns", Op: "<=", Threshold: 5e6},
		{Name: "multidoc_commits", Bench: "DocServeMultiDoc", Metric: "extra:commits/s", Op: ">=", Threshold: 10000},
		// The component-typed op path (table cell-sets fanned out to 16
		// live replicas) must not collapse relative to plain text commits:
		// registry dispatch and table transforms are per-op constant work.
		{Name: "tablecollab_commits", Bench: "DocServeTableCollab", Metric: "extra:commits/s", Op: ">=", Threshold: 1000},
		{Name: "tablecollab_p99_lag", Bench: "DocServeTableCollab", Metric: "extra:p99-lag-ns", Op: "<=", Threshold: 5e6},
		{Name: "line_index_speedup", Metric: "speedup:line_start_end_of_doc", Op: ">=", Threshold: 5},
		{Name: "relayout_speedup", Metric: "speedup:relayout_100k_lines", Op: ">=", Threshold: 100},
		// A keystroke (one insert and one delete at the middle line) may
		// cost at most twice as much in a 200,000-line document as in a
		// 2,000-line one: in the text object alone, and with a laid-out
		// text view repairing its layout.
		{Name: "text_edit_size_ratio", Metric: "speedup:text_edit_200k_over_2k", Op: "<=", Threshold: 2},
		{Name: "textview_edit_size_ratio", Metric: "speedup:textview_edit_200k_over_2k", Op: "<=", Threshold: 2},
		// A keystroke's damage-region repaint must stay several times
		// cheaper than repainting the whole view: undamaged lines are
		// skipped, not drawn and clipped away.
		{Name: "repaint_damage_speedup", Metric: "speedup:repaint_damage_speedup", Op: ">=", Threshold: 5},
		// The streaming large-document pipeline (BENCH_stream.json): a
		// 100 MB document must open at least 10x faster to first paint and
		// hold at least 5x less live heap than the eager load, and an
		// attach past the per-frame snapshot bound must actually stream as
		// snapr chunk frames.
		{Name: "open_ttfp_speedup", Metric: "speedup:open_large_doc", Op: ">=", Threshold: 10},
		{Name: "open_rss_ratio", Metric: "speedup:open_rss_ratio", Op: ">=", Threshold: 5},
		{Name: "chunked_attach_chunks", Bench: "StreamChunkedAttach", Metric: "extra:chunks/attach", Op: ">=", Threshold: 2},
		// A save streams the piece table through the escape encoder and
		// a fixed-size buffer into the file, and holds no copy of the
		// document: one save of BenchmarkStreamSave's 8.25 MB document
		// may allocate at most 1 MiB, a bound that does not grow with
		// the document.
		{Name: "stream_save_bytes", Bench: "StreamSave", Metric: "bytes_per_op", Op: "<=", Threshold: 1 << 20},
		// A save flushes what its old-or-journaled guarantee needs and no
		// more: the document's fsync and its directory's. The offset
		// index and the rotated journal are renamed in unflushed, and the
		// retired journal's pending records, which the saved file holds,
		// are dropped (DESIGN §9). A count, so the machine cannot move it.
		{Name: "save_fsyncs", Bench: "StreamSave", Metric: "extra:fsyncs/op", Op: "<=", Threshold: 2},
		// A cache-miss join copies the document a fixed number of times
		// at each end: one join of BenchmarkDocServeJoin's 123,917-byte
		// document may allocate at most 8 bytes per document byte
		// (991,336 B), against about 17 when it extracted a piece table,
		// escaped through two scratch buffers, and made a string of the
		// frame and of every line.
		{Name: "join_alloc_per_doc_byte", Bench: "DocServeJoin/tcp", Metric: "bytes_per_op", Op: "<=", Threshold: 8 * 123917},
	}
}

// EvaluateBenchGates checks each gate against the loaded reports. A gate
// whose benchmark or metric is absent from every report fails: a gate
// that measures nothing must not pass silently.
func EvaluateBenchGates(gates []BenchGate, reports []*BenchReport) []GateResult {
	out := make([]GateResult, 0, len(gates))
	for _, bg := range gates {
		a := Assertion{Name: bg.Name, Metric: bg.Metric, Op: bg.Op, Value: bg.Threshold, Hard: true}
		v, where, ok := benchValue(bg, reports)
		g := GateResult{
			Gate:      "bench/" + bg.Name,
			Metric:    bg.Metric,
			Op:        bg.Op,
			Threshold: bg.Threshold,
			N:         1,
			Mean:      v,
			Hard:      true,
		}
		if !ok {
			g.Pass = false
			g.Mean = math.NaN()
			g.Detail = "benchmark metric not found in any report"
		} else {
			g.Pass = !a.violated(v)
			g.Detail = where
		}
		out = append(out, g)
	}
	return out
}

func benchValue(bg BenchGate, reports []*BenchReport) (float64, string, bool) {
	if key, ok := strings.CutPrefix(bg.Metric, "speedup:"); ok {
		for _, r := range reports {
			if v, ok := r.Speedups[key]; ok {
				return v, "speedups", true
			}
		}
		return 0, "", false
	}
	for _, r := range reports {
		for _, e := range r.Benchmarks {
			if bg.Bench == "" || !strings.Contains(e.Name, bg.Bench) {
				continue
			}
			switch bg.Metric {
			case "ns_per_op":
				return e.NsPerOp, e.Name, true
			case "bytes_per_op":
				return float64(e.BytesPerOp), e.Name, true
			case "allocs_per_op":
				return float64(e.AllocsPerOp), e.Name, true
			case "mb_per_sec":
				return e.MBPerSec, e.Name, true
			default:
				if key, ok := strings.CutPrefix(bg.Metric, "extra:"); ok {
					if v, ok := e.Extra[key]; ok {
						return v, e.Name, true
					}
				}
			}
		}
	}
	return 0, "", false
}
