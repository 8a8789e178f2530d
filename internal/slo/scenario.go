// Package slo is the fault-scenario SLO harness: it drives a live
// docserve server through declaratively defined fault scenarios and
// turns what happened into metrics, assertion verdicts, and artifacts a
// release gate (cmd/slogate) can hold the tree to.
//
// A scenario is deterministic by construction — fixed seed for the
// offered load (internal/slo/driver) and the fault pattern
// (internal/slo/faultnet), fixed phase plan — and runs in three phases:
//
//	warmup   clean traffic establishes the baseline
//	inject   the scenario's faults are armed
//	recovery faults are disarmed; the system must heal on its own
//
// After recovery the harness stops the load and measures the ground
// truth OT promises: every surviving replica must converge to the
// host's snapshot (divergence is an absolute failure, not a latency
// blip), and the time to convergence is the recovery SLO.
package slo

import (
	"fmt"
	"math"
	"time"

	"atk/internal/slo/driver"
	"atk/internal/slo/faultnet"
)

// Scenario declares one fault experiment.
type Scenario struct {
	Name        string
	Description string
	Mix         driver.Mix
	// Seed fixes the offered load and the fault pattern; a scenario's
	// assertion outcomes are a function of (definition, seed).
	Seed int64
	// Phase durations, scaled by RunOptions.TimeScale.
	Warmup   time.Duration
	Inject   time.Duration
	Recovery time.Duration
	// Net, when non-nil, is armed during inject (its Seed field is
	// overridden with the scenario seed).
	Net *faultnet.Plan
	// JournalWriteEvery/JournalSyncEvery > 0 serve the document from a
	// file-backed host on a FaultFS and fail every Nth journal write /
	// fsync during inject — durability faults that must never cost
	// availability or convergence.
	JournalWriteEvery int
	JournalSyncEvery  int
	// FloodConns opens that many hostile connections during inject, each
	// spraying seeded garbage at the listener in a loop.
	FloodConns int
	// PreloadRunes seeds the served document with that many runes before
	// the load starts, so every attach happens against an already-large
	// document. Memory-backed hosts only.
	PreloadRunes int
	// PreloadTable embeds a seeded 4x4 table in the served document before
	// the load starts, so table writers deterministically share one
	// component instead of racing to embed. Memory-backed hosts only.
	PreloadTable bool
	// SnapFrameBytes, when > 0, overrides the host's MaxSnapshotBytes
	// (the per-frame snapshot bound), forcing attaches of the preloaded
	// document to stream as chunked snapr range frames.
	SnapFrameBytes int
	// HostRestart serves the document from a file-backed host and, a
	// third of the way into inject, drains the server (bye broadcast,
	// save, host-state sidecar) and restarts it on the same files and
	// address: clients must auto-resume without losing an edit.
	HostRestart bool
	Assertions  []Assertion
}

// Assertion is one gate condition over the scenario's metrics.
type Assertion struct {
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Op     string  `json:"op"` // "<=" or ">="
	Value  float64 `json:"threshold"`
	// Hard assertions are correctness properties (convergence, liveness,
	// fault-actually-injected): any single rerun violating them fails
	// the gate, with no variance allowance.
	Hard bool `json:"hard"`
}

// violated reports whether v breaks the assertion.
func (a Assertion) violated(v float64) bool {
	if math.IsNaN(v) {
		return true
	}
	switch a.Op {
	case "<=":
		return v > a.Value
	case ">=":
		return v < a.Value
	default:
		return true
	}
}

// AssertionResult is one assertion evaluated against one run.
type AssertionResult struct {
	Assertion
	Got  float64 `json:"got"`
	Pass bool    `json:"pass"`
}

// Summary is one scenario run's record, written to summary.json next to
// the run's JSONL samples.
type Summary struct {
	Scenario    string              `json:"scenario"`
	Seed        int64               `json:"seed"`
	DurationSec float64             `json:"duration_sec"`
	Phases      []driver.PhaseStats `json:"phases"`
	// LiveReplicas is how many writer/reader replicas survived to the
	// convergence check; Diverged counts those that failed it.
	LiveReplicas int                `json:"live_replicas"`
	Diverged     int                `json:"diverged"`
	RecoveryMS   float64            `json:"recovery_ms"`
	Metrics      map[string]float64 `json:"metrics"`
	Assertions   []AssertionResult  `json:"assertions"`
	Pass         bool               `json:"pass"`
}

// evaluate runs the scenario's assertions against the collected metrics.
// A missing metric evaluates as NaN and fails loudly rather than
// silently passing a gate that measured nothing.
func evaluate(assertions []Assertion, metrics map[string]float64) ([]AssertionResult, bool) {
	out := make([]AssertionResult, 0, len(assertions))
	all := true
	for _, a := range assertions {
		v, ok := metrics[a.Metric]
		if !ok {
			v = math.NaN()
		}
		r := AssertionResult{Assertion: a, Got: v, Pass: !a.violated(v)}
		all = all && r.Pass
		out = append(out, r)
	}
	return out, all
}

// phaseMetrics flattens one phase's stats into the metrics map under
// "<phase>." keys, latencies in milliseconds.
func phaseMetrics(m map[string]float64, p driver.PhaseStats) {
	pre := p.Phase + "."
	m[pre+"commits"] = float64(p.Commits)
	m[pre+"deliveries"] = float64(p.Deliveries)
	m[pre+"attaches"] = float64(p.Attaches)
	m[pre+"errors"] = float64(p.Errors)
	m[pre+"resumes"] = float64(p.Resumes)
	m[pre+"commit_p50_ms"] = float64(p.CommitP50us) / 1000
	m[pre+"commit_p95_ms"] = float64(p.CommitP95us) / 1000
	m[pre+"commit_p99_ms"] = float64(p.CommitP99us) / 1000
	m[pre+"attach_p50_ms"] = float64(p.AttachP50us) / 1000
	m[pre+"attach_p95_ms"] = float64(p.AttachP95us) / 1000
	m[pre+"attach_p99_ms"] = float64(p.AttachP99us) / 1000
}

func (sc Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("slo: scenario with empty name")
	}
	if sc.Warmup <= 0 || sc.Inject <= 0 || sc.Recovery <= 0 {
		return fmt.Errorf("slo: scenario %s: all three phases need positive durations", sc.Name)
	}
	for _, a := range sc.Assertions {
		if a.Op != "<=" && a.Op != ">=" {
			return fmt.Errorf("slo: scenario %s: assertion %s has op %q (want <= or >=)", sc.Name, a.Name, a.Op)
		}
	}
	return nil
}
