package docserve

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"atk/internal/class"
	"atk/internal/datastream"
	"atk/internal/ops"
	"atk/internal/persist"
	"atk/internal/text"
)

var (
	fuzzRegOnce sync.Once
	fuzzReg     *class.Registry
)

func fuzzRegistry() *class.Registry {
	fuzzRegOnce.Do(func() {
		fuzzReg = class.NewRegistry()
		if err := text.Register(fuzzReg); err != nil {
			panic(err)
		}
	})
	return fuzzReg
}

// frames renders logical lines to raw wire bytes, escaped as every peer
// sends them.
func frames(lines ...[]byte) []byte {
	var wire []byte
	for _, l := range lines {
		wire = datastream.AppendEscapedBytes(wire, l)
	}
	return wire
}

// decodeOps decodes record wire forms into ops for op-group frames.
func decodeOps(payloads ...string) []ops.Op {
	out := make([]ops.Op, len(payloads))
	for i, p := range payloads {
		op, err := ops.Decode(p)
		if err != nil {
			panic(err)
		}
		out[i] = op
	}
	return out
}

// FuzzServerProtocol throws arbitrary bytes at a live file-backed host.
// Whatever arrives, the server must not panic, must not wedge, and must
// keep its core invariant: the document reopened from disk (base plus
// journal replay) is exactly the document the host is serving.
func FuzzServerProtocol(f *testing.F) {
	hello := []byte(encodeHello("doc.d", "fz"))
	f.Add(frames(hello))
	f.Add(frames(hello, appendOpGroup(nil, 1, 0, decodeOps("i 0 hi"))))
	f.Add(frames(hello, appendOpGroup(nil, 1, 0, decodeOps("i 0 a", "d 0 1", "s 0 2 bold"))))
	f.Add(frames(hello, []byte("op 1 0 1 9999:i 0 x")))
	f.Add(frames([]byte("hello atkdoc1 doc.d "+strings.Repeat("z", 300)), []byte("ping tok")))
	f.Add([]byte("hello atkdoc1 doc.d fz\nop \\u41; \\q broken\n"))
	f.Add([]byte(strings.Repeat("A", 70000) + "\n"))
	f.Add([]byte("\\"))
	f.Add(frames(hello, []byte("ping "+strings.Repeat("p", 500)), []byte("bye")))

	f.Fuzz(func(t *testing.T, data []byte) {
		reg := fuzzRegistry()
		mem := persist.NewMemFS()
		base := text.New()
		_ = base.Insert(0, "seed text\n")
		if err := persist.SaveDocument(mem, "doc.d", base); err != nil {
			t.Fatal(err)
		}
		h, err := OpenHostFile(mem, "doc.d", reg, HostOptions{
			IdleTimeout:  2 * time.Second,
			WriteTimeout: time.Second,
			QueueLen:     32,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(HostOptions{IdleTimeout: 2 * time.Second, WriteTimeout: time.Second})
		srv.AddHost(h)

		cEnd, sEnd := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.HandleConn(sEnd)
		}()
		go func() { _, _ = io.Copy(io.Discard, cEnd) }() // drain server output

		_ = cEnd.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, _ = cEnd.Write(data)
		_ = cEnd.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("session wedged on hostile input")
		}

		// The journal must replay to exactly the state the host reached.
		want := h.DocString()
		if err := h.SyncNow(); err != nil {
			t.Fatalf("sync after hostile input: %v", err)
		}
		mem.Crash()
		df, err := persist.Load(mem, "doc.d", reg, datastream.Strict)
		if err != nil {
			t.Fatalf("reopen after hostile input: %v", err)
		}
		got := df.Doc.String()
		_ = df.Close()
		if got != want {
			t.Fatalf("journal replay diverged from served state:\nserved: %q\nreplayed: %q", want, got)
		}
	})
}
