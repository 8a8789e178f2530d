GO ?= go

.PHONY: all build test verify fuzz generate bench bench-docserve bench-stream bench-e2e slo

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate: everything must pass before a change lands.
# It checks that every tracked Go file is gofmt-clean (listing tracked
# files keeps the Go cache in .bench_build/ out of the check), builds and
# vets every package, runs the full test suite under the
# race detector (which includes the golden-frame comparisons), reruns the
# docserve soak and table-collaboration tests and the loadgen tests 20
# times under it (their interleavings vary run to run, so one pass
# proves little), smoke-fuzzes the datastream reader, its line reader
# and its escape encoder (against the byte loop it grew from), the
# write→read→write round trip through the full component
# registry, the streamed encoding of edited documents, the text store
# against its []rune oracle, the repaint equivalence oracle on both
# of its fixtures, and a docserve join against the framing it replaced,
# holds the committed benchmark numbers to their gates, and runs the
# end-to-end benchmark (bench-e2e).
verify:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestSoak|TestTableCollab|TestRun' ./internal/docserve ./cmd/loadgen
	$(GO) test -run=NONE -bench=. -benchtime=1x .
	$(GO) test -fuzz=FuzzReader -fuzztime=10s ./internal/datastream
	$(GO) test -fuzz=FuzzLineReader -fuzztime=10s ./internal/datastream
	$(GO) test -fuzz=FuzzEscapeText -fuzztime=10s ./internal/datastream
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=10s .
	$(GO) test -fuzz=FuzzEncodeEdited -fuzztime=10s ./internal/persist
	$(GO) test -fuzz=FuzzDataOracle -fuzztime=10s ./internal/text
	$(GO) test -fuzz='^FuzzRepaint$$' -fuzztime=10s .
	$(GO) test -fuzz=FuzzRepaintWrapped -fuzztime=10s .
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/persist
	$(GO) test -fuzz=FuzzServerProtocol -fuzztime=10s ./internal/docserve
	$(GO) test -fuzz=FuzzSnapshotJoin -fuzztime=10s ./internal/docserve
	$(GO) test -fuzz=FuzzOpsCodec -fuzztime=10s ./internal/ops
	$(GO) run ./cmd/slogate -bench BENCH_text.json -bench BENCH_docserve.json -bench BENCH_stream.json
	$(MAKE) bench-e2e

# bench-e2e builds and runs the end-to-end benchmark, e2ebench, a module
# of its own that `go test ./...` never builds. solo_edit and pair_type
# must each end with correct output and zero failed operations, and a
# run whose output-check model is skewed by one keystroke must fail.
E2E_PASSED = tail -n 1 | grep -q '^{"correct":true,"attempted":[0-9]*,"failed":0,'
bench-e2e:
	bash e2ebench/run.sh --workload solo_edit --seconds 5 | $(E2E_PASSED)
	bash e2ebench/run.sh --workload pair_type --seconds 5 | $(E2E_PASSED)
	out=$$(bash e2ebench/run.sh --workload pair_type --seconds 1 --model-skew 2>/dev/null); \
		test $$? -ne 0 && echo "$$out" | tail -n 1 | grep -q '^{"correct":false,'

# fuzz runs all fuzz targets for longer; extend FUZZTIME for real runs.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/datastream
	$(GO) test -fuzz=FuzzLineReader -fuzztime=$(FUZZTIME) ./internal/datastream
	$(GO) test -fuzz=FuzzEscapeText -fuzztime=$(FUZZTIME) ./internal/datastream
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzEncodeEdited -fuzztime=$(FUZZTIME) ./internal/persist
	$(GO) test -fuzz=FuzzDataOracle -fuzztime=$(FUZZTIME) ./internal/text
	$(GO) test -fuzz='^FuzzRepaint$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzRepaintWrapped -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/persist
	$(GO) test -fuzz=FuzzServerProtocol -fuzztime=$(FUZZTIME) ./internal/docserve
	$(GO) test -fuzz=FuzzSnapshotJoin -fuzztime=$(FUZZTIME) ./internal/docserve
	$(GO) test -fuzz=FuzzOpsCodec -fuzztime=$(FUZZTIME) ./internal/ops

# generate rebuilds committed artifacts (testdata/sample.d).
generate:
	$(GO) generate ./...

# bench runs the streaming large-document suite, then every experiment
# benchmark, recording the text-indexing and incremental-repaint results
# (entries plus derived speedups) in BENCH_text.json.
bench: bench-stream
	$(GO) test -bench=. -benchmem . | $(GO) run ./cmd/benchjson -out BENCH_text.json -filter E9TextIndexing,IncrementalEdit

# bench-docserve measures the replication server's serving paths — the
# single-document fan-out bench (one writer, 32 reader replicas), the
# sharded multi-document bench (8 documents, each with a writer and 4
# readers), and a cache-miss join of a 121 KB document, whole over
# loopback TCP and as its host and client shares — and records
# commits/s, deliveries/s, p99 fan-out lag, and the join's time and
# allocation in BENCH_docserve.json. Each runs three times, so the file
# carries each figure's spread across the reruns.
bench-docserve:
	$(GO) test -run=NONE -bench=DocServe -benchtime=3s -count=3 -benchmem ./internal/docserve | \
		$(GO) run ./cmd/benchjson -out BENCH_docserve.json -filter DocServe \
		-cmd "go test -run=NONE -bench=DocServe -benchtime=3s -count=3 -benchmem ./internal/docserve"

# bench-stream measures the streaming large-document pipeline: the
# 100 MB open (time-to-first-paint and live heap, streamed vs eager), the
# save of an edited 8 MB document (time and bytes allocated), and the
# chunked snapshot attach of a document past the per-frame bound. Each
# runs once per op, three times, so BENCH_stream.json carries each
# time's spread across the reruns. Results (plus the derived
# open_large_doc / open_rss_ratio speedups) land in BENCH_stream.json,
# which cmd/slogate holds to release floors.
bench-stream:
	$(GO) test -run=NONE -bench=Stream -benchtime=1x -count=3 -benchmem . | \
		$(GO) run ./cmd/benchjson -out BENCH_stream.json -filter Stream \
		-cmd "go test -run=NONE -bench=Stream -benchtime=1x -count=3 -benchmem ."

# slo runs the fault-scenario suite (internal/slo) SLO_RERUNS times per
# scenario against a live in-process docserve server — slow consumers,
# injected connect/read latency, mid-stream partitions, rapid connection
# flapping, a graceful host drain + restart mid-load, journal
# write/fsync faults, hostile floods — writes per-run JSONL samples and
# summaries under slo_artifacts/, then gates: hard assertions
# (convergence, zero lost edits across the restart, liveness,
# fault-armed proof) fail on any violating rerun; soft latency SLOs fail
# only when the regression exceeds cross-rerun noise (>= 3 reruns for a
# variance allowance). Gates derive from each scenario's own assertions,
# so new scenarios flow in automatically.
SLO_RERUNS ?= 3
slo:
	$(GO) run ./cmd/slogate -run -reruns $(SLO_RERUNS) -artifacts slo_artifacts \
		-bench BENCH_text.json -bench BENCH_docserve.json -bench BENCH_stream.json
