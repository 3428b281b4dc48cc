package fanout

import (
	"sync/atomic"
	"testing"
)

// TestGoAllReraisesWorkerPanic: the parse workers, parallel stages and
// simulator shards run on goroutines of their own, where no caller's
// recover reaches. A worker's panic must come back on the caller's
// goroutine, after every worker has returned, so a serving daemon's
// reload attempt can turn it into an error instead of dying.
func TestGoAllReraisesWorkerPanic(t *testing.T) {
	var ran atomic.Int32
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want the worker's panic", p)
		}
		if n := ran.Load(); n != 3 {
			t.Errorf("%d of 3 workers ran before the re-raise", n)
		}
	}()
	work := func() { ran.Add(1) }
	GoAll(work, func() { ran.Add(1); panic("boom") }, work)
	t.Fatal("GoAll returned normally after a worker panicked")
}
