// Command e2ebench is the end-to-end benchmark of the toolkit's editing
// path: a keystroke in one ez window, through a journaled docserve host
// over loopback TCP, into another replica's text view. It runs the real
// program in one process: replicas are built as cmd/ez builds them and
// hosts are served as cmd/ezserve serves them.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload pair_type [--seed 1] [--seconds 20] [--trace 0|1]
//	bash e2ebench/run.sh --steady 10 [--seconds 20]
//
// An untraced run prints the end-to-end metrics; a traced run (--trace 1)
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See
// e2ebench/README.md for the workloads and what each metric times.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"atk/internal/persist"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"solo_edit":   runSolo,
	"pair_type":   runPair,
	"duet_styled": runDuet,
	"join_busy":   runJoin,
}

// workloadOrder names the workloads in the order the usage message lists them.
var workloadOrder = []string{"solo_edit", "pair_type", "duet_styled", "join_busy"}

// workRoot is where runs keep their files, relative to the repository
// root the benchmark runs from.
const workRoot = ".bench_build/work"

func main() {
	name := flag.String("workload", "", "workload to run: solo_edit, pair_type, duet_styled or join_busy")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long the measured phase runs, in whole rounds")
	traceFlag := flag.Int("trace", 0, "1 wraps the filesystem and connections, registers observer probes, and prints per-layer metrics")
	steady := flag.Int("steady", 0, "run every workload BENCHMARK.json names this many times, alternating their order, and print each end-to-end metric's median and quartiles")
	skew := flag.Bool("model-skew", false, "feed the output-check model one keystroke the program never sees (the run must then fail)")
	unpaced := flag.Bool("unpaced", false, "join_busy only: the writer types back to back instead of at its fixed rate")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured phase to this file")
	flag.Parse()

	if *steady > 0 {
		if err := runSteady(*steady, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(workRoot, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		dir:      dir,
		skew:     *skew,
		unpaced:  *unpaced,
		fsys:     persist.OS,
		res:      newResult(),
	}
	if *traceFlag == 1 {
		b.tr = newTracer()
		b.fsys = &traceFS{inner: persist.OS, tr: b.tr}
	}
	if *cpuprofile != "" {
		if b.profile, err = os.Create(*cpuprofile); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
	}
	err = run(b)
	if b.profile != nil {
		pprof.StopCPUProfile()
		if cerr := b.profile.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing the CPU profile:", cerr)
		}
	}
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: removing work directory:", rmErr)
	}
	if err != nil {
		b.res.problem("%s: %v", *name, err)
	}
	if b.tr != nil {
		spans := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", *name, *seed))
		if werr := b.tr.write(spans); werr != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing spans:", werr)
		} else {
			fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(b.tr.spans), spans)
		}
	}
	for _, f := range b.res.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: FAILED OPERATION:", f)
	}
	for _, p := range b.res.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: FAILED CHECK:", p)
	}
	out := b.res.output(b.tr != nil)
	if extra := b.res.extraLine(b.tr != nil); extra != "" {
		fmt.Println(extra)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// bench is one run's configuration and accumulating result.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	dir      string
	skew     bool
	unpaced  bool
	profile  *os.File   // CPU profile of the measured phase, if asked for
	tr       *tracer    // nil when untraced
	fsys     persist.FS // the filesystem handed to the program
	res      *result

	phaseStart time.Time
	allocs     uint64 // bytes allocated while editing (traced runs)
	gcs        uint64 // collections while editing (traced runs)
}

// Load limits. Deadlines turn a hung operation into a counted failure.
const (
	opDeadline   = 5 * time.Second
	joinDeadline = 10 * time.Second
	// Set-up is measured this many times before the measured phase and
	// again after it, so that its median reflects the whole run.
	setupBefore = 5
	setupAfter  = 4
)

// quiesce collects the garbage input generation left, so that set-up and
// the measured phase start from the same quiet heap on every run.
func (b *bench) quiesce() { runtime.GC() }

// beginPhase starts the measured phase (and the CPU profile, if any).
func (b *bench) beginPhase() {
	b.phaseStart = time.Now()
	if b.profile != nil {
		if err := pprof.StartCPUProfile(b.profile); err != nil {
			b.res.problem("starting the CPU profile: %v", err)
		}
	}
}

// more reports whether the measured phase should run another round: until
// --seconds have passed and every p99 has its minimum sample count, but
// never past three times the run length.
func (b *bench) more(samplesNeeded bool) bool {
	el := time.Since(b.phaseStart)
	if el >= 3*b.seconds+20*time.Second {
		return false
	}
	return el < b.seconds || samplesNeeded
}

// result is what one run measured and checked.
type result struct {
	attempted, failed int
	problems          []string // failed output checks
	failures          []string // failed operations

	setup                      []float64 // s
	key, ack, seen, open, save []float64 // ms
	heap                       []float64 // MB
	edits                      int
	editTime                   time.Duration

	extra map[string]float64 // workload-specific figures, printed on their own line
	layer map[string]float64 // per-layer metrics (traced runs)
}

func newResult() *result {
	return &result{extra: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problem(format, args...)
	}
	return ok
}

// op counts one attempted operation and, if err is set, its failure.
func (r *result) op(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s failed: %v", what, err))
		return false
	}
	return true
}

// noteHeap records the live heap after a forced collection.
func (r *result) noteHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heap = append(r.heap, float64(m.HeapAlloc)/(1<<20))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units: the ones the
// benchmark gates, which held within their bounds across runs.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"key_p50_ms", "ms"}, {"ack_p50_ms", "ms"}, {"seen_p50_ms", "ms"},
	{"open_ms", "ms"}, {"save_ms", "ms"}, {"heap_mb", "MB"},
}

// ungated lists end-to-end figures every run still reports, on the
// "# extra:" line: on a shared two-core VM their run-to-run spread was
// wider than any bound the benchmark may set.
var ungated = []string{"edits_per_s", "key_p99_ms", "ack_p99_ms", "seen_p99_ms"}

func (r *result) output(traced bool) output {
	o := output{
		Correct:   len(r.problems) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for _, m := range perLayer {
			o.Metrics[m.name] = metric{r.layer[m.name], m.unit}
		}
		return o
	}
	v := r.endToEndValues()
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"key", r.key}, {"ack", r.ack}, {"seen", r.seen}} {
		if len(s.xs) < minTail {
			fmt.Fprintf(os.Stderr, "e2ebench: warning: %s_p99_ms rests on %d samples, fewer than %d\n", s.name, len(s.xs), minTail)
		}
	}
	for _, m := range endToEnd {
		o.Metrics[m.name] = metric{v[m.name], m.unit}
	}
	return o
}

// endToEndValues computes every end-to-end metric from the samples.
func (r *result) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":     median(r.setup),
		"edits_per_s": ratio(float64(r.edits), r.editTime.Seconds()),
		"key_p50_ms":  median(r.key), "key_p99_ms": windowedP99(r.key),
		"ack_p50_ms": median(r.ack), "ack_p99_ms": windowedP99(r.ack),
		"seen_p50_ms": median(r.seen), "seen_p99_ms": windowedP99(r.seen),
		"open_ms": median(r.open), "save_ms": median(r.save),
		"heap_mb": median(r.heap),
	}
}

// extraLine renders the workload-specific figures and sample counts, and
// in a traced run the end-to-end metrics too, so that the tracing overhead
// can be read off against an untraced run.
func (r *result) extraLine(traced bool) string {
	v := r.endToEndValues()
	for _, k := range ungated {
		r.extra[k] = v[k]
	}
	if traced {
		for _, m := range endToEnd {
			r.extra["e2e."+m.name] = v[m.name]
		}
	}
	r.extra["samples.key"] = float64(len(r.key))
	r.extra["samples.ack"] = float64(len(r.ack))
	r.extra["samples.seen"] = float64(len(r.seen))
	r.extra["samples.open"] = float64(len(r.open))
	r.extra["samples.save"] = float64(len(r.save))
	names := make([]string, 0, len(r.extra))
	for k := range r.extra {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# extra:")
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%.4g", k, r.extra[k])
	}
	return b.String()
}
