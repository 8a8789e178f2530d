package docserve

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"atk/internal/class"
	"atk/internal/table"
	"atk/internal/text"
)

// fanoutBench is the serving-path benchmark the DocServe benchmarks
// share: docs documents on one server, each with one writer and
// readersPer reader replicas, every client on its own net.Pipe. prepare
// runs once on each writer before its readers attach and returns the
// function that commits the writer's op i (from 1); b.N counts the ops
// of each writer. A writer commits op i+1 only after every reader of its
// document has applied op i, so the benchmark measures fan-out at the
// pace the readers keep, not an uncapped writer overrunning them. It
// reports committed ops/s and deliveries/s across all documents, and the
// 99th-percentile fan-out lag: from the writer stamping an op to a
// reader having applied it.
func fanoutBench(b *testing.B, docs, readersPer int, newReg func() *class.Registry,
	prepare func(w *Client) (commit func(i int) error)) {
	srv := NewServer(HostOptions{QueueLen: 8192})
	defer srv.Close()
	dial := func(doc, id string, opts ClientOptions) *Client {
		cEnd, sEnd := net.Pipe()
		go srv.HandleConn(sEnd)
		opts.ClientID = id
		opts.Registry = newReg()
		c, err := Connect(cEnd, doc, opts)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}

	// One document's writer, its ops' send stamps, and what its readers
	// saw: a reader records op i's lag and then signals applied.
	type docRun struct {
		w       *Client
		commit  func(i int) error
		base    uint64 // the seq before op 1
		sent    []int64
		lags    [][]int64
		applied chan struct{} // one send per reader per op
	}
	done := make(chan struct{})   // the writers are finished
	failed := make(chan struct{}) // a reader's connection died
	var failOnce sync.Once
	var readerErr error
	var wg sync.WaitGroup
	runs := make([]*docRun, docs)
	for d := range runs {
		name := fmt.Sprintf("bench.d%d", d)
		doc := text.New()
		doc.SetRegistry(newReg())
		srv.AddHost(NewHost(name, doc, HostOptions{QueueLen: 8192}))
		w := dial(name, fmt.Sprintf("w%d", d), ClientOptions{})
		defer w.Close()
		run := &docRun{w: w, commit: prepare(w), base: w.Confirmed(),
			sent: make([]int64, b.N+1), lags: make([][]int64, readersPer),
			applied: make(chan struct{}, readersPer)}
		runs[d] = run
		for r := range run.lags {
			run.lags[r] = make([]int64, 0, b.N)
			c := dial(name, fmt.Sprintf("r%d-%02d", d, r), ClientOptions{
				OnRemoteOp: func(seq uint64) {
					if seq > run.base && seq-run.base <= uint64(b.N) {
						run.lags[r] = append(run.lags[r], time.Now().UnixNano()-run.sent[seq-run.base])
						run.applied <- struct{}{}
					}
				},
			})
			defer c.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if err := c.PumpWait(50 * time.Millisecond); err != nil {
						failOnce.Do(func() { readerErr = err; close(failed) })
						return
					}
				}
			}()
		}
	}

	b.ResetTimer()
	start := time.Now()
	errs := make([]error, docs)
	var wwg sync.WaitGroup
	for d, run := range runs {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for i := 1; i <= b.N; i++ {
				run.sent[i] = time.Now().UnixNano()
				if err := run.commit(i); err != nil {
					errs[d] = err
					return
				}
				if err := run.w.Sync(10 * time.Second); err != nil {
					errs[d] = err
					return
				}
				for range readersPer {
					select {
					case <-run.applied:
					case <-failed:
						errs[d] = fmt.Errorf("op %d: a reader failed: %w", i, readerErr)
						return
					}
				}
			}
		}()
	}
	wwg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	close(done)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		b.Fatal(err)
	}

	var all []int64
	for _, run := range runs {
		for _, l := range run.lags {
			all = append(all, l...)
		}
	}
	if len(all) != docs*readersPer*b.N {
		b.Fatalf("fan-out incomplete: %d deliveries, want %d", len(all), docs*readersPer*b.N)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[len(all)*99/100]
	b.ReportMetric(float64(docs*b.N)/elapsed.Seconds(), "commits/s")
	b.ReportMetric(float64(len(all))/elapsed.Seconds(), "deliveries/s")
	b.ReportMetric(float64(p99), "p99-lag-ns")
}

// textReg returns a registry holding the text component.
func textReg() *class.Registry {
	reg := class.NewRegistry()
	if err := text.Register(reg); err != nil {
		panic(err)
	}
	return reg
}

// appendChar commits one inserted character per op: plain text makes no
// style checkpoints, so each op is one committed seq.
func appendChar(w *Client) func(int) error {
	return func(int) error { return w.Doc().Insert(w.Doc().Len(), "x") }
}

// BenchmarkDocServeFanout measures the serving hot path: one writer
// commits an op per iteration while 32 reader replicas each receive and
// apply every committed op.
func BenchmarkDocServeFanout(b *testing.B) {
	fanoutBench(b, 1, 32, textReg, appendChar)
}

// BenchmarkDocServeTableCollab measures the component-typed op path: one
// writer commits a cell-set per iteration against an embedded table while
// 16 reader replicas apply every committed table op into their own live
// table components. Table ops skip the text checkpoint machinery
// entirely, so this doubles as a regression floor for the registry
// dispatch overhead.
func BenchmarkDocServeTableCollab(b *testing.B) {
	reg := func() *class.Registry {
		reg := textReg()
		if err := table.Register(reg); err != nil {
			b.Fatal(err)
		}
		return reg
	}
	fanoutBench(b, 1, 16, reg, func(w *Client) func(int) error {
		td := table.New(8, 8)
		if err := w.Embed(0, td, ""); err != nil {
			b.Fatal(err)
		}
		if err := w.Sync(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		return func(i int) error { return td.SetNumber(i%8, (i/8)%8, float64(i)) }
	})
}
