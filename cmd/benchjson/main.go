// Command benchjson filters `go test -bench` output into a JSON record.
// It reads the benchmark stream on stdin, echoes it unchanged to stdout
// (so it sits in a pipeline without hiding results), and writes the
// parsed entries whose name contains -filter to -out. When the text
// indexing pairs are present it also derives the headline ratios —
// indexed line lookup versus the rune-walk baseline, viewport-lazy
// relayout versus full relayout, and a keystroke's cost in a 200,000-line
// document over its cost in a 2,000-line one.
//
// Repeated occurrences of the same benchmark name (go test -count=N)
// are merged into one entry carrying the mean, the rerun count, and the
// cross-rerun sample stddev of ns/op and each custom metric — the
// variance cmd/slogate's gates use to tell a regression from noise.
//
//	go test -bench=. -benchmem -count=3 . | go run ./cmd/benchjson -out BENCH_text.json -filter E9TextIndexing
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

type entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units the fixed fields above do
	// not cover (e.g. commits/s, p99-lag-ns from the docserve fan-out).
	Extra map[string]float64 `json:"extra,omitempty"`
	// Reruns > 1 marks a merged entry (go test -count=N): the values
	// above are cross-rerun means and the stddev fields below carry the
	// sample standard deviation so gates can compare regressions to
	// noise.
	Reruns        int                `json:"reruns,omitempty"`
	NsPerOpStddev float64            `json:"ns_per_op_stddev,omitempty"`
	ExtraStddev   map[string]float64 `json:"extra_stddev,omitempty"`
}

type report struct {
	Command    string             `json:"command"`
	Goos       string             `json:"goos,omitempty"`
	Goarch     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks []entry            `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
}

// speedupPairs maps a derived-metric name to [baseline, improved] name
// suffixes; the ratio baseline/improved of their ns/op lands in the
// speedups map. The *_200k_over_2k pairs divide a large document's cost
// by a small one's, so there near 1 is the goal.
var speedupPairs = map[string][2]string{
	"line_start_end_of_doc":      {"LineStartScanBaseline", "LineStartIndexed"},
	"relayout_10k_lines":         {"RelayoutFull10k", "RelayoutViewport10k"},
	"relayout_100k_lines":        {"RelayoutFull100k", "RelayoutViewport100k"},
	"open_large_doc":             {"OpenLargeDocEager", "OpenLargeDocStreamed"},
	"text_edit_200k_over_2k":     {"EditData200k", "EditData2k"},
	"textview_edit_200k_over_2k": {"EditView200k", "EditView2k"},
}

// extraRatioPairs derives ratios from a custom metric instead of ns/op:
// key -> {baseline name, improved name, extra unit}. The ratio
// baseline/improved joins the speedups map (e.g. the eager open's live
// heap over the streamed open's).
var extraRatioPairs = map[string][3]string{
	"open_rss_ratio": {"OpenLargeDocEager", "OpenLargeDocStreamed", "heap-mb"},
}

// collector accumulates parsed benchmark lines, merging reruns of the
// same name while preserving first-seen order.
type collector struct {
	order []string
	runs  map[string][]entry
}

func newCollector() *collector {
	return &collector{runs: map[string][]entry{}}
}

func (c *collector) add(e entry) {
	if _, seen := c.runs[e.Name]; !seen {
		c.order = append(c.order, e.Name)
	}
	c.runs[e.Name] = append(c.runs[e.Name], e)
}

// finalize merges each name's reruns into one entry: means for every
// value, rerun count, and sample stddev for ns/op and the custom
// metrics. Single-run entries pass through untouched (no rerun fields).
func (c *collector) finalize() []entry {
	out := make([]entry, 0, len(c.order))
	for _, name := range c.order {
		runs := c.runs[name]
		if len(runs) == 1 {
			out = append(out, runs[0])
			continue
		}
		m := entry{Name: name, Reruns: len(runs)}
		var ns []float64
		extras := map[string][]float64{}
		for _, e := range runs {
			m.Iterations += e.Iterations
			m.MBPerSec += e.MBPerSec
			m.BytesPerOp += e.BytesPerOp
			m.AllocsPerOp += e.AllocsPerOp
			ns = append(ns, e.NsPerOp)
			for k, v := range e.Extra {
				extras[k] = append(extras[k], v)
			}
		}
		n := int64(len(runs))
		m.Iterations /= n
		m.MBPerSec /= float64(n)
		m.BytesPerOp /= n
		m.AllocsPerOp /= n
		m.NsPerOp, m.NsPerOpStddev = meanStddev(ns)
		for k, vs := range extras {
			mean, sd := meanStddev(vs)
			if m.Extra == nil {
				m.Extra = map[string]float64{}
			}
			m.Extra[k] = mean
			if sd > 0 {
				if m.ExtraStddev == nil {
					m.ExtraStddev = map[string]float64{}
				}
				m.ExtraStddev[k] = sd
			}
		}
		out = append(out, m)
	}
	return out
}

// meanStddev returns the mean and sample standard deviation of vs.
func meanStddev(vs []float64) (mean, stddev float64) {
	if len(vs) == 0 {
		return 0, 0
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

func main() {
	out := flag.String("out", "BENCH_text.json", "JSON output path")
	filter := flag.String("filter", "", "only record benchmarks whose name contains this substring")
	cmd := flag.String("cmd", "go test -bench=. -benchmem .", "command recorded in the report")
	flag.Parse()

	rep := report{Command: *cmd}
	col := newCollector()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		}
		if e, ok := parseBench(line); ok && strings.Contains(e.Name, *filter) {
			col.add(e)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}

	rep.Benchmarks = col.finalize()
	rep.Speedups = deriveSpeedups(rep.Benchmarks)
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// parseBench parses one `go test -bench` result line, e.g.
//
//	BenchmarkFoo/Bar-8   12345   987.6 ns/op   307.15 MB/s   16 B/op   2 allocs/op
func parseBench(line string) (entry, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return entry{}, false
	}
	f := strings.Fields(line)
	if len(f) < 4 {
		return entry{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return entry{}, false
	}
	e := entry{Name: strings.TrimPrefix(f[0], "Benchmark"), Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val := f[i]
		switch f[i+1] {
		case "ns/op":
			e.NsPerOp, _ = strconv.ParseFloat(val, 64)
		case "MB/s":
			e.MBPerSec, _ = strconv.ParseFloat(val, 64)
		case "B/op":
			e.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			e.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		default:
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				if e.Extra == nil {
					e.Extra = map[string]float64{}
				}
				e.Extra[f[i+1]] = v
			}
		}
	}
	if e.NsPerOp == 0 {
		return entry{}, false
	}
	return e, true
}

func deriveSpeedups(es []entry) map[string]float64 {
	byName := map[string]entry{}
	for _, e := range es {
		if i := strings.LastIndex(e.Name, "/"); i >= 0 {
			// Strip the leading group and trailing -P cpu suffix.
			name := e.Name[i+1:]
			if j := strings.LastIndex(name, "-"); j >= 0 {
				if _, err := strconv.Atoi(name[j+1:]); err == nil {
					name = name[:j]
				}
			}
			byName[name] = e
		}
	}
	out := map[string]float64{}
	for metric, pair := range speedupPairs {
		base, ok1 := byName[pair[0]]
		fast, ok2 := byName[pair[1]]
		if ok1 && ok2 && fast.NsPerOp > 0 {
			out[metric] = round2(base.NsPerOp / fast.NsPerOp)
		}
	}
	for metric, trio := range extraRatioPairs {
		base, ok1 := byName[trio[0]]
		fast, ok2 := byName[trio[1]]
		if ok1 && ok2 && base.Extra[trio[2]] > 0 && fast.Extra[trio[2]] > 0 {
			out[metric] = round2(base.Extra[trio[2]] / fast.Extra[trio[2]])
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
