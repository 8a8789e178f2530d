//go:build race

package text

import (
	"strings"
	"sync"
	"testing"
)

// TestConcurrentCursorReaders drives many goroutines, each iterating the
// same buffer through its own Cursor, under the race detector. This is
// the documented concurrency contract for the indexed buffer: concurrent
// readers are safe while nothing mutates, with no priming read first.
// (Gated on -race: without the detector this proves nothing the
// sequential tests don't.)
func TestConcurrentCursorReaders(t *testing.T) {
	d := NewString("")
	for i := 0; i < 200; i++ {
		if err := d.Insert(d.Len()/2, "some shared text\nwith lines "); err != nil {
			t.Fatal(err)
		}
	}
	want := d.String()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sb strings.Builder
			c := d.Cursor(0)
			for {
				r, ok := c.Next()
				if !ok {
					break
				}
				sb.WriteRune(r)
			}
			if sb.String() != want {
				errs <- "forward sweep mismatch"
				return
			}
			// Interleave point queries on the shared indexes.
			if d.LineCount() != strings.Count(want, "\n")+1 {
				errs <- "LineCount mismatch"
				return
			}
			if _, err := d.RuneAt(g * 13 % d.Len()); err != nil {
				errs <- err.Error()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
