package slo

import (
	"time"

	"atk/internal/slo/driver"
	"atk/internal/slo/faultnet"
)

// Builtin returns the scenario suite `make slo` runs. Thresholds are
// deliberately generous — they are SLOs for a loopback harness, meant to
// catch collapses (divergence, deadlock, recovery that never happens),
// not to re-measure the benchmarks; BENCH_*.json gates own raw speed.
// Hard assertions are correctness properties with zero variance
// allowance; the rest go through the slogate variance rule.
func Builtin() []Scenario {
	const (
		warmup   = 250 * time.Millisecond
		inject   = 600 * time.Millisecond
		recovery = 300 * time.Millisecond
	)
	std := func(extra ...Assertion) []Assertion {
		base := []Assertion{
			{Name: "replicas_converge", Metric: "diverged", Op: "<=", Value: 0, Hard: true},
			{Name: "live_under_fault", Metric: "inject.commits", Op: ">=", Value: 1, Hard: true},
			{Name: "recovers", Metric: "recovery.commits", Op: ">=", Value: 1, Hard: true},
			{Name: "recovery_bounded", Metric: "recovery_ms", Op: "<=", Value: 8000},
		}
		return append(base, extra...)
	}
	return []Scenario{
		{
			Name:        "baseline_load",
			Description: "clean run: no faults; establishes that the harness itself is quiet",
			Mix:         driver.Mix{Writers: 2, Readers: 4, Churners: 1, Rate: 200},
			Seed:        1001,
			Warmup:      warmup, Inject: inject, Recovery: recovery,
			Assertions: std(
				Assertion{Name: "no_session_errors", Metric: "errors", Op: "<=", Value: 0},
				Assertion{Name: "commit_latency", Metric: "inject.commit_p95_ms", Op: "<=", Value: 500},
			),
		},
		{
			Name:        "slow_consumer",
			Description: "a fraction of reads stall: bounded queues must absorb or evict without hurting writers",
			Mix:         driver.Mix{Writers: 2, Readers: 6, Rate: 200},
			Seed:        1002,
			Warmup:      warmup, Inject: inject, Recovery: recovery,
			Net: &faultnet.Plan{StallFrac: 0.12, StallFor: 40 * time.Millisecond},
			Assertions: std(
				Assertion{Name: "commit_latency", Metric: "inject.commit_p95_ms", Op: "<=", Value: 1000},
			),
		},
		{
			Name:        "connect_read_latency",
			Description: "every dial and read pays injected latency: attach and delivery degrade gracefully",
			Mix:         driver.Mix{Writers: 2, Readers: 3, Churners: 2, Rate: 200},
			Seed:        1003,
			Warmup:      warmup, Inject: inject, Recovery: recovery,
			Net: &faultnet.Plan{ConnectDelay: 30 * time.Millisecond, ReadDelay: 2 * time.Millisecond},
			Assertions: std(
				// Proves the fault was actually armed: churner attaches during
				// inject must pay at least the injected connect delay.
				Assertion{Name: "fault_armed", Metric: "inject.attach_p95_ms", Op: ">=", Value: 20, Hard: true},
				Assertion{Name: "attach_recovers", Metric: "recovery.attach_p95_ms", Op: "<=", Value: 250},
			),
		},
		{
			Name:        "partition_midstream",
			Description: "connections are cut mid-stream: sessions resume, rebase pending edits, and converge",
			Mix:         driver.Mix{Writers: 2, Readers: 2, Rate: 200},
			Seed:        1004,
			Warmup:      warmup, Inject: inject, Recovery: recovery,
			Net: &faultnet.Plan{CutAfter: 150 * time.Millisecond, CutJitter: 100 * time.Millisecond},
			Assertions: std(
				Assertion{Name: "fault_armed", Metric: "net_cuts", Op: ">=", Value: 1, Hard: true},
				Assertion{Name: "sessions_resumed", Metric: "resumes", Op: ">=", Value: 1, Hard: true},
			),
		},
		{
			Name:        "host_restart",
			Description: "the host drains mid-run and restarts on the same files: sessions auto-resume with zero lost edits",
			Mix:         driver.Mix{Writers: 2, Readers: 2, Rate: 200},
			Seed:        1008,
			Warmup:      warmup, Inject: inject, Recovery: recovery,
			HostRestart: true,
			Assertions: std(
				Assertion{Name: "fault_armed", Metric: "host_restarts", Op: ">=", Value: 1, Hard: true},
				Assertion{Name: "no_lost_edits", Metric: "lost_edits", Op: "<=", Value: 0, Hard: true},
				Assertion{Name: "sessions_resumed", Metric: "resumes", Op: ">=", Value: 1, Hard: true},
			),
		},
		{
			Name:        "connection_flap",
			Description: "connections are cut again and again: the client heal loop reconnects every time without dropping work",
			Mix:         driver.Mix{Writers: 2, Readers: 2, Rate: 200},
			Seed:        1009,
			Warmup:      warmup, Inject: inject, Recovery: recovery,
			Net: &faultnet.Plan{CutAfter: 60 * time.Millisecond, CutJitter: 60 * time.Millisecond},
			Assertions: std(
				Assertion{Name: "fault_armed", Metric: "net_cuts", Op: ">=", Value: 1, Hard: true},
				Assertion{Name: "sessions_resumed", Metric: "resumes", Op: ">=", Value: 1, Hard: true},
				Assertion{Name: "no_lost_edits", Metric: "lost_edits", Op: "<=", Value: 0, Hard: true},
			),
		},
		{
			Name:        "journal_faults",
			Description: "journal writes and fsyncs fail during inject: durability degrades, availability must not",
			Mix:         driver.Mix{Writers: 2, Readers: 2, Rate: 200},
			Seed:        1005,
			Warmup:      warmup, Inject: inject, Recovery: recovery,
			JournalWriteEvery: 7,
			JournalSyncEvery:  5,
			Assertions: std(
				Assertion{Name: "fault_armed", Metric: "journal_errors", Op: ">=", Value: 1, Hard: true},
			),
		},
		{
			Name:        "large_attach",
			Description: "attaches stream a preloaded large document as chunked snapr frames while commits stay live and some consumers stall",
			Mix:         driver.Mix{Writers: 2, Readers: 3, Churners: 2, Rate: 200},
			Seed:        1007,
			Warmup:      warmup, Inject: inject, Recovery: recovery,
			// 200k runes against an 8 KiB per-frame bound: every snapshot
			// attach must chunk (~25+ snapr frames), and — because document
			// size rejects no commit — commits keep landing far past the
			// old single-frame ceiling.
			PreloadRunes:   200_000,
			SnapFrameBytes: 8 << 10,
			Net:            &faultnet.Plan{StallFrac: 0.1, StallFor: 30 * time.Millisecond},
			Assertions: std(
				// Proves the chunked path was actually exercised: attaches
				// staged snapr range frames.
				Assertion{Name: "fault_armed", Metric: "snap_chunks", Op: ">=", Value: 1, Hard: true},
				Assertion{Name: "commit_latency", Metric: "inject.commit_p95_ms", Op: "<=", Value: 1000},
			),
		},
		{
			Name:        "table_collab",
			Description: "table writers commit cell and structural ops against a shared embedded table while text writers type: component-typed ops converge byte-identically with zero resets and zero style checkpoints",
			Mix:         driver.Mix{Writers: 1, TableWriters: 2, Readers: 3, Rate: 200},
			Seed:        1010,
			Warmup:      warmup, Inject: inject, Recovery: recovery,
			PreloadTable: true,
			Assertions: std(
				// Proves the component path was actually exercised, and that no
				// table mutation fell off the op model (a reset means a replica
				// had to be rebuilt — the exact failure this PR removes).
				Assertion{Name: "fault_armed", Metric: "table_ops", Op: ">=", Value: 1, Hard: true},
				Assertion{Name: "no_table_resets", Metric: "table_resets", Op: "<=", Value: 0, Hard: true},
				// Table-only groups must not trigger text style checkpoints.
				Assertion{Name: "no_style_checkpoints", Metric: "style_checkpoints", Op: "<=", Value: 0, Hard: true},
			),
		},
		{
			Name:        "hostile_flood",
			Description: "garbage-spraying connections hammer the listener: rejected without hurting sessions",
			Mix:         driver.Mix{Writers: 2, Readers: 2, Churners: 1, Rate: 200},
			Seed:        1006,
			Warmup:      warmup, Inject: inject, Recovery: recovery,
			FloodConns: 3,
			Assertions: std(
				Assertion{Name: "fault_armed", Metric: "server_rejects", Op: ">=", Value: 1, Hard: true},
				Assertion{Name: "commit_latency", Metric: "inject.commit_p95_ms", Op: "<=", Value: 1000},
			),
		},
	}
}
