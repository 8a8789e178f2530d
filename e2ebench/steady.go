package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// The steadiness mode runs every workload BENCHMARK.json names n times as
// child processes, one seed per repetition, alternating the workload
// order, and prints each
// end-to-end metric's median and quartiles with its spread: the distance
// between the quartiles as a share of the median. A spread above the
// metric's bound in BENCHMARK.json is marked.

// quartiles returns the three cut points of xs into four groups, computed
// as Python's statistics.quantiles(xs, n=4) does (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	var q [3]float64
	if ld == 0 {
		return q
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// benchmarkSpec reads the gated workloads and each end-to-end metric's
// bound from BENCHMARK.json.
func benchmarkSpec() ([]string, map[string]float64, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return names, bounds, nil
}

// provenance names the commit, toolchain and machine.
func provenance() string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("commit %s, %s, %s, nproc %d", commit, runtime.Version(), cpu, runtime.NumCPU())
}

func runSteady(n int, seed int64, seconds int) error {
	names, bounds, err := benchmarkSpec()
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		for _, w := range order {
			s := seed + int64(i)
			cmd := exec.Command(exe, "--workload", w, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var o output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			if !o.Correct {
				return fmt.Errorf("%s seed %d: output checks failed", w, s)
			}
			if vals[w] == nil {
				vals[w] = map[string][]float64{}
			}
			for name, m := range o.Metrics {
				vals[w][name] = append(vals[w][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "e2ebench: steady %d/%d %s seed %d: attempted %d failed %d\n", i+1, n, w, s, o.Attempted, o.Failed)
		}
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# e2ebench steadiness: %d runs per workload of %ds, %s\n", n, seconds, provenance())
	fmt.Fprintf(&b, "%-12s %-12s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range names {
		for _, m := range endToEnd {
			q := quartiles(vals[w][m.name])
			spread := ratio(q[2]-q[0], q[1])
			mark := ""
			if spread > bounds[m.name] {
				mark = "  EXCEEDS BOUND"
			}
			fmt.Fprintf(&b, "%-12s %-12s %12.4f %12.4f %12.4f %8.3f %6.2f%s\n", w, m.name, q[0], q[1], q[2], spread, bounds[m.name], mark)
		}
	}
	_, err = os.Stdout.Write(b.Bytes())
	return err
}
